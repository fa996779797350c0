package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"modeldata/internal/rng"
)

// TestInjectorDecisionsAreSchedulingIndependent verifies the injector
// contract: the fate of an attempt depends only on its TaskInfo, never
// on call order or wall-clock time.
func TestInjectorDecisionsAreSchedulingIndependent(t *testing.T) {
	inj := PanicInjector{Prob: 0.5, Seed: 3}
	fate := func(ti TaskInfo) (crashed bool) {
		defer func() { crashed = recover() != nil }()
		inj.Inject(ti)
		return false
	}
	infos := []TaskInfo{
		{Stage: "map", Index: 0, Attempt: 1},
		{Stage: "map", Index: 1, Attempt: 1},
		{Stage: "reduce", Index: 0, Attempt: 1},
		{Stage: "map", Index: 0, Attempt: 2},
	}
	first := make([]bool, len(infos))
	for i, ti := range infos {
		first[i] = fate(ti)
	}
	// Replay in reverse: decisions must not change.
	for i := len(infos) - 1; i >= 0; i-- {
		if fate(infos[i]) != first[i] {
			t.Fatalf("decision for %v changed on replay", infos[i])
		}
	}
	// Prob extremes are absolute.
	always := PanicInjector{Prob: 1, Seed: 9}
	never := PanicInjector{Prob: 0, Seed: 9}
	for _, ti := range infos {
		crashed := func() (c bool) {
			defer func() { c = recover() != nil }()
			always.Inject(ti)
			return false
		}()
		if !crashed {
			t.Fatalf("Prob=1 spared %v", ti)
		}
		never.Inject(ti) // must not panic
	}
}

// TestInjectedFaultUnwraps checks the panic payload chains to
// ErrInjectedFault so tests can tell injected crashes from real bugs.
func TestInjectedFaultUnwraps(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("payload %v does not unwrap to ErrInjectedFault", r)
		}
	}()
	PanicInjector{Prob: 1}.Inject(TaskInfo{Stage: "map"})
}

// TestCrashAttemptsSelectors pins the stage/index matching and the
// crash-then-succeed lifecycle.
func TestCrashAttemptsSelectors(t *testing.T) {
	crashes := func(c CrashAttempts, ti TaskInfo) (crashed bool) {
		defer func() { crashed = recover() != nil }()
		c.Inject(ti)
		return false
	}
	c := CrashAttempts{Stage: "map", Index: 2, Times: 2}
	cases := []struct {
		ti   TaskInfo
		want bool
	}{
		{TaskInfo{"map", 2, 1}, true},
		{TaskInfo{"map", 2, 2}, true},
		{TaskInfo{"map", 2, 3}, false},    // budget spent: attempt 3 lives
		{TaskInfo{"map", 1, 1}, false},    // wrong index
		{TaskInfo{"reduce", 2, 1}, false}, // wrong stage
	}
	for _, tc := range cases {
		if got := crashes(c, tc.ti); got != tc.want {
			t.Errorf("crash(%v) = %v, want %v", tc.ti, got, tc.want)
		}
	}
	// Wildcards: Stage "" and Index -1 match everything.
	wild := CrashAttempts{Index: -1, Times: 1}
	if !crashes(wild, TaskInfo{"anything", 99, 1}) {
		t.Fatal("wildcard selectors did not match")
	}
}

func TestBackoffForGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{Backoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	want := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.BackoffFor(i + 1); got != w {
			t.Errorf("BackoffFor(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Zero fields fall back to the defaults.
	var zero RetryPolicy
	if zero.BackoffFor(1) != DefaultBackoff {
		t.Fatalf("default backoff = %v", zero.BackoffFor(1))
	}
}

// TestBackoffForTable walks the full doubling schedule: exact
// Backoff·2^(failures−1) growth until the cap, then the cap exactly —
// never a value above it, for failure counts far past the point where
// naive doubling would overflow the cap.
func TestBackoffForTable(t *testing.T) {
	p := RetryPolicy{Backoff: 250 * time.Microsecond, MaxBackoff: 10 * time.Millisecond}
	cases := []struct {
		failures int
		want     time.Duration
	}{
		{1, 250 * time.Microsecond},
		{2, 500 * time.Microsecond},
		{3, 1 * time.Millisecond},
		{4, 2 * time.Millisecond},
		{5, 4 * time.Millisecond},
		{6, 8 * time.Millisecond},
		{7, 10 * time.Millisecond}, // 16ms capped
		{8, 10 * time.Millisecond},
		{9, 10 * time.Millisecond},
		{10, 10 * time.Millisecond},
		{11, 10 * time.Millisecond},
		{12, 10 * time.Millisecond},
	}
	for _, tc := range cases {
		got := p.BackoffFor(tc.failures)
		if got != tc.want {
			t.Errorf("BackoffFor(%d) = %v, want %v", tc.failures, got, tc.want)
		}
		if got > p.MaxBackoff {
			t.Errorf("BackoffFor(%d) = %v exceeds cap %v", tc.failures, got, p.MaxBackoff)
		}
	}
	// The defaulted policy honors DefaultMaxBackoff over the same range.
	var zero RetryPolicy
	for failures := 1; failures <= 12; failures++ {
		if got := zero.BackoffFor(failures); got > DefaultMaxBackoff {
			t.Errorf("default BackoffFor(%d) = %v exceeds DefaultMaxBackoff", failures, got)
		}
	}
}

// countingInjector passes attempts to inner and counts what it saw:
// every attempt, and every attempt inner crashed.
type countingInjector struct {
	inner            FaultInjector
	attempts, panics atomic.Int64
}

func (c *countingInjector) Inject(ti TaskInfo) {
	c.attempts.Add(1)
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			panic(r)
		}
	}()
	c.inner.Inject(ti)
}

// TestStatsRegistryParityUnderChaos pins the registry to the events it
// counts: under chaos, task.attempts equals the attempts the injector
// saw, task.retries the crashes it caused, and every iteration is
// counted once.
func TestStatsRegistryParityUnderChaos(t *testing.T) {
	s := NewStats()
	inj := &countingInjector{inner: PanicInjector{Prob: 0.4, Seed: 21}}
	ctx := WithStats(context.Background(), s)
	ctx = WithFaultInjector(ctx, inj)
	ctx = WithRetryPolicy(ctx, RetryPolicy{MaxRetries: 8, Backoff: 20 * time.Microsecond})
	err := For(ctx, 64, Options{Workers: 4}, func(i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	if reg == nil {
		t.Fatal("Stats.Registry() = nil for a live collector")
	}
	checks := []struct {
		metric string
		want   int64
	}{
		{MetricIterations, 64},
		{MetricShuffleBytes, 0},
		{MetricAttempts, inj.attempts.Load()},
		{MetricRetries, inj.panics.Load()},
	}
	for _, c := range checks {
		if v := reg.Counter(c.metric).Value(); v != c.want {
			t.Errorf("registry %q = %d, want %d", c.metric, v, c.want)
		}
	}
	// The chaos actually exercised the retry path — the parity above is
	// vacuous if everything stayed zero.
	if inj.panics.Load() == 0 || reg.Counter(MetricBackoffNanos).Value() <= 0 {
		t.Fatalf("chaos run recorded no fault-tolerance activity:\n%s", reg.Snapshot())
	}
}

// TestForRetriesInjectedCrashes runs a loop under an injector that
// kills the first two attempts of every index: with a sufficient retry
// budget every index still completes exactly once.
func TestForRetriesInjectedCrashes(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 20
		counts := make([]atomic.Int64, n)
		s := NewStats()
		ctx := WithStats(context.Background(), s)
		ctx = WithFaultInjector(ctx, CrashAttempts{Index: -1, Times: 2})
		ctx = WithRetryPolicy(ctx, RetryPolicy{MaxRetries: 3, Backoff: 50 * time.Microsecond})
		err := For(ctx, n, Options{Workers: workers}, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d committed %d times", workers, i, c)
			}
		}
		snap := s.Registry().Snapshot()
		if got := snap.Counters[MetricAttempts]; got != 3*n {
			t.Fatalf("attempts = %d, want %d", got, 3*n)
		}
		if got := snap.Counters[MetricRetries]; got != 2*n {
			t.Fatalf("retries = %d, want %d", got, 2*n)
		}
		if snap.Counters[MetricBackoffNanos] <= 0 {
			t.Fatalf("no backoff recorded:\n%s", snap)
		}
	}
}

// TestForExhaustedRetryBudgetFails pins the failure path: a task that
// outlives its budget aborts the loop with ErrTaskFailed wrapping the
// injected fault.
func TestForExhaustedRetryBudgetFails(t *testing.T) {
	ctx := WithFaultInjector(context.Background(), CrashAttempts{Index: 3, Times: 100})
	ctx = WithRetryPolicy(ctx, RetryPolicy{MaxRetries: 2, Backoff: 10 * time.Microsecond})
	err := For(ctx, 8, Options{}, func(i int) error { return nil })
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("err = %v, want ErrTaskFailed", err)
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v, want chained ErrInjectedFault", err)
	}
}

// TestNoFaultsOptOutBypassesInjector verifies loops that declare their
// bodies non-re-runnable never see the injector.
func TestNoFaultsOptOutBypassesInjector(t *testing.T) {
	ctx := WithFaultInjector(context.Background(), PanicInjector{Prob: 1, Seed: 1})
	err := For(ctx, 10, Options{NoFaults: true}, func(i int) error { return nil })
	if err != nil {
		t.Fatalf("NoFaults loop hit the injector: %v", err)
	}
}

// TestForStreamsDeterministicUnderFaults is the heart of the
// determinism-under-retry contract: a loop whose attempts crash and
// retry must produce output bit-identical to the failure-free run,
// because every retry replays a pristine copy of the iteration's
// substream.
func TestForStreamsDeterministicUnderFaults(t *testing.T) {
	run := func(workers int, inj FaultInjector) []float64 {
		t.Helper()
		parent := rng.New(42)
		const n = 64
		out := make([]float64, n)
		ctx := WithFaultInjector(context.Background(), inj)
		ctx = WithRetryPolicy(ctx, RetryPolicy{MaxRetries: 5, Backoff: 20 * time.Microsecond})
		err := ForStreams(ctx, parent, n, Options{Workers: workers}, func(i int, r *rng.Stream) error {
			s := 0.0
			for k := 0; k < 10; k++ {
				s += r.Normal(0, 1)
			}
			out[i] = s
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	clean := run(1, nil)
	for _, workers := range []int{1, 2, 8} {
		for _, inj := range []FaultInjector{
			CrashAttempts{Index: -1, Times: 1},
			PanicInjector{Prob: 0.4, Seed: 7},
			Chain{
				PanicInjector{Prob: 0.3, Seed: 11},
				LatencyInjector{Prob: 0.3, Delay: 100 * time.Microsecond, Seed: 12},
			},
		} {
			got := run(workers, inj)
			for i := range clean {
				if got[i] != clean[i] {
					t.Fatalf("workers=%d inj=%T: out[%d] = %v, want %v",
						workers, inj, i, got[i], clean[i])
				}
			}
		}
	}
}

// TestRetryPolicyContextRoundTrip pins the context plumbing used by the
// facade and the MapReduce runtime.
func TestRetryPolicyContextRoundTrip(t *testing.T) {
	if _, ok := RetryPolicyFrom(context.Background()); ok {
		t.Fatal("bare context reported a policy")
	}
	want := RetryPolicy{MaxRetries: 4, Backoff: 3 * time.Millisecond}
	got, ok := RetryPolicyFrom(WithRetryPolicy(context.Background(), want))
	if !ok || got != want {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
	if InjectorFrom(context.Background()) != nil {
		t.Fatal("bare context reported an injector")
	}
	inj := PanicInjector{Prob: 0.1}
	if InjectorFrom(WithFaultInjector(context.Background(), inj)) != inj {
		t.Fatal("injector did not round-trip")
	}
	// nil injector leaves the context untouched.
	ctx := context.Background()
	if WithFaultInjector(ctx, nil) != ctx {
		t.Fatal("nil injector allocated a context")
	}
}
