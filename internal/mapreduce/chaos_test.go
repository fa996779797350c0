package mapreduce

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// chaosDocs is a word-count corpus big enough to spread tasks across
// workers but cheap enough to re-run many times.
func chaosDocs() []any {
	words := []string{"model", "data", "ecosystem", "hadoop", "splash", "simsql"}
	splits := make([]any, 24)
	for i := range splits {
		var b strings.Builder
		for k := 0; k <= i%7; k++ {
			b.WriteString(words[(i+k)%len(words)])
			b.WriteByte(' ')
		}
		splits[i] = b.String()
	}
	return splits
}

func countWords(split any, emit func(Pair)) error {
	for _, w := range strings.Fields(split.(string)) {
		emit(Pair{Key: w, Value: 1})
	}
	return nil
}

func sumCounts(key string, values []any, emit func(Pair)) error {
	emit(Pair{Key: key, Value: len(values)})
	return nil
}

// faultCtx returns a context carrying pol, inj and a fresh
// parallel.Stats, whose registry the tests read the job's
// fault-tolerance counters from.
func faultCtx(pol parallel.RetryPolicy, inj parallel.FaultInjector) (context.Context, *obs.Registry) {
	st := parallel.NewStats()
	ctx := parallel.WithStats(context.Background(), st)
	ctx = parallel.WithRetryPolicy(ctx, pol)
	return parallel.WithFaultInjector(ctx, inj), st.Registry()
}

// TestChaosOutputBitIdentical is the tentpole acceptance test: a job
// whose task attempts crash and stall at random must emit output
// exactly equal to the failure-free run, across seeds and worker
// counts, because failed attempts discard their partial output and
// retries recompute identical results.
func TestChaosOutputBitIdentical(t *testing.T) {
	splits := chaosDocs()
	clean, _, err := RunCtx(context.Background(), Config{Mappers: 4, Reducers: 3}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	sawRetry := false
	for seed := uint64(0); seed < 6; seed++ {
		for _, cfg := range []Config{
			{Mappers: 1, Reducers: 1},
			{Mappers: 8, Reducers: 3},
		} {
			ctx, reg := faultCtx(parallel.RetryPolicy{MaxRetries: 8}, parallel.Chain{
				parallel.PanicInjector{Prob: 0.3, Seed: seed},
				parallel.LatencyInjector{Prob: 0.2, Delay: 200 * time.Microsecond, Seed: seed + 100},
			})
			out, _, err := RunCtx(ctx, cfg, splits, countWords, sumCounts)
			if err != nil {
				t.Fatalf("seed=%d cfg=%+v: %v", seed, cfg, err)
			}
			if len(out) != len(clean) {
				t.Fatalf("seed=%d: %d pairs vs %d", seed, len(out), len(clean))
			}
			for i := range clean {
				if out[i] != clean[i] {
					t.Fatalf("seed=%d: pair %d diverged: %+v vs %+v", seed, i, out[i], clean[i])
				}
			}
			if reg.Counter(parallel.MetricRetries).Value() > 0 {
				sawRetry = true
			}
			if got := reg.Counter(parallel.MetricAttempts).Value(); got < int64(len(splits)) {
				t.Fatalf("seed=%d: only %d attempts for %d splits", seed, got, len(splits))
			}
		}
	}
	if !sawRetry {
		t.Fatal("no run ever retried — injector not wired through")
	}
}

// TestCrashNTimesThenSucceed is the classic Hadoop fixture: one task
// dies on its first two attempts and the third commits.
func TestCrashNTimesThenSucceed(t *testing.T) {
	splits := chaosDocs()
	clean, _, err := RunCtx(context.Background(), Config{Mappers: 4, Reducers: 2}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, reg := faultCtx(parallel.RetryPolicy{MaxRetries: 3, Backoff: 20 * time.Microsecond},
		parallel.CrashAttempts{Stage: "map", Index: 5, Times: 2})
	out, _, err := RunCtx(ctx, Config{Mappers: 4, Reducers: 2}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if out[i] != clean[i] {
			t.Fatalf("pair %d diverged: %+v vs %+v", i, out[i], clean[i])
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[parallel.MetricRetries]; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	// len(splits) map attempts + 2 map retries + 2 reduce attempts.
	if want, got := int64(len(splits))+2+2, snap.Counters[parallel.MetricAttempts]; got != want {
		t.Fatalf("attempts = %d, want %d", got, want)
	}
	if snap.Counters[parallel.MetricBackoffNanos] <= 0 {
		t.Fatalf("no backoff recorded:\n%s", snap)
	}
}

// TestRetryBudgetExhaustionFails pins the abort path and its error
// chain: the job reports the injected fault as a worker panic after the
// budget is spent, naming the task by its stage.
func TestRetryBudgetExhaustionFails(t *testing.T) {
	ctx, _ := faultCtx(parallel.RetryPolicy{MaxRetries: 2, Backoff: 10 * time.Microsecond},
		parallel.CrashAttempts{Stage: "map", Index: 0, Times: 100})
	_, _, err := RunCtx(ctx, Config{Mappers: 2, Reducers: 2}, chaosDocs(), countWords, sumCounts)
	if err == nil {
		t.Fatal("job survived an unkillable task")
	}
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic in chain", err)
	}
	if !errors.Is(err, parallel.ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault in chain", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "map[0] after 3 attempt(s)") || strings.Contains(msg, "parallel[") {
		t.Fatalf("err = %v, want the failed task named map[0], never parallel[0]", err)
	}
}

// TestZeroRetriesKeepsFailFast pins backward compatibility: without a
// retry budget the first crash aborts the job exactly as before.
func TestZeroRetriesKeepsFailFast(t *testing.T) {
	st := parallel.NewStats()
	ctx := parallel.WithStats(context.Background(), st)
	ctx = parallel.WithFaultInjector(ctx, parallel.CrashAttempts{Stage: "map", Index: 0, Times: 1})
	_, _, err := RunCtx(ctx, Config{}, chaosDocs(), countWords, sumCounts)
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	if got := st.Registry().Counter(parallel.MetricRetries).Value(); got != 0 {
		t.Fatalf("retries = %d without a budget", got)
	}
}

// TestContextPolicyAndInjectorApply verifies a job takes its retry
// policy and injector from the context, the path the modeldata facade
// uses, and that a reduce-stage crash is retried once.
func TestContextPolicyAndInjectorApply(t *testing.T) {
	splits := chaosDocs()
	ctx, reg := faultCtx(parallel.RetryPolicy{MaxRetries: 3, Backoff: 20 * time.Microsecond},
		parallel.CrashAttempts{Stage: "reduce", Index: 1, Times: 1})
	clean, _, err := RunCtx(context.Background(), Config{Mappers: 4, Reducers: 3}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := RunCtx(ctx, Config{Mappers: 4, Reducers: 3}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if out[i] != clean[i] {
			t.Fatalf("pair %d diverged: %+v vs %+v", i, out[i], clean[i])
		}
	}
	if got := reg.Counter(parallel.MetricRetries).Value(); got != 1 {
		t.Fatalf("retries = %d, want 1 (the crashed reduce attempt)", got)
	}
}
