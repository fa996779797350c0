package mapreduce

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
			cfg.MaxRetries = 8
			cfg.Injector = parallel.Chain{
				parallel.PanicInjector{Prob: 0.3, Seed: seed},
				parallel.LatencyInjector{Prob: 0.2, Delay: 200 * time.Microsecond, Seed: seed + 100},
			}
			out, stats, err := RunCtx(context.Background(), cfg, splits, countWords, sumCounts)
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
			if stats.Retries > 0 {
				sawRetry = true
			}
			if stats.TaskAttempts < int64(len(splits)) {
				t.Fatalf("seed=%d: only %d attempts for %d splits", seed, stats.TaskAttempts, len(splits))
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
	out, stats, err := RunCtx(context.Background(), Config{
		Mappers: 4, Reducers: 2,
		MaxRetries: 3,
		Backoff:    20 * time.Microsecond,
		Injector:   parallel.CrashAttempts{Stage: "map", Index: 5, Times: 2},
	}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if out[i] != clean[i] {
			t.Fatalf("pair %d diverged: %+v vs %+v", i, out[i], clean[i])
		}
	}
	if stats.Retries != 2 {
		t.Fatalf("retries = %d, want 2", stats.Retries)
	}
	// len(splits) map attempts + 2 map retries + 2 reduce attempts.
	if want := int64(len(splits)) + 2 + 2; stats.TaskAttempts != want {
		t.Fatalf("attempts = %d, want %d", stats.TaskAttempts, want)
	}
	if stats.BackoffTime <= 0 {
		t.Fatalf("no backoff recorded: %+v", stats)
	}
}

// TestRetryBudgetExhaustionFails pins the abort path and its error
// chain: the job reports the injected fault as a worker panic after the
// budget is spent.
func TestRetryBudgetExhaustionFails(t *testing.T) {
	_, _, err := RunCtx(context.Background(), Config{
		Mappers: 2, Reducers: 2,
		MaxRetries: 2,
		Backoff:    10 * time.Microsecond,
		Injector:   parallel.CrashAttempts{Stage: "map", Index: 0, Times: 100},
	}, chaosDocs(), countWords, sumCounts)
	if err == nil {
		t.Fatal("job survived an unkillable task")
	}
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic in chain", err)
	}
	if !errors.Is(err, parallel.ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault in chain", err)
	}
}

// TestZeroRetriesKeepsFailFast pins backward compatibility: without a
// retry budget the first crash aborts the job exactly as before.
func TestZeroRetriesKeepsFailFast(t *testing.T) {
	_, stats, err := RunCtx(context.Background(), Config{
		Injector: parallel.CrashAttempts{Stage: "map", Index: 0, Times: 1},
	}, chaosDocs(), countWords, sumCounts)
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	if stats.Retries != 0 {
		t.Fatalf("retries = %d without a budget", stats.Retries)
	}
}

// stallOnce stalls the first attempt of one map task long enough to be
// flagged as a straggler; its backup attempt runs clean.
type stallOnce struct {
	index int
	delay time.Duration
	hits  *atomic.Int64
}

func (s stallOnce) Inject(ti parallel.TaskInfo) {
	if ti.Stage == "map" && ti.Index == s.index && ti.Attempt == 1 {
		s.hits.Add(1)
		time.Sleep(s.delay)
	}
}

// TestSpeculativeExecution manufactures one straggler and requires the
// scheduler to launch a backup attempt whose result matches the
// failure-free run bit for bit.
func TestSpeculativeExecution(t *testing.T) {
	splits := chaosDocs()
	clean, _, err := RunCtx(context.Background(), Config{Mappers: 8, Reducers: 2}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	out, stats, err := RunCtx(context.Background(), Config{
		Mappers: 8, Reducers: 2,
		SpeculativeFactor: 2,
		Injector:          stallOnce{index: 0, delay: 100 * time.Millisecond, hits: &hits},
	}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if out[i] != clean[i] {
			t.Fatalf("pair %d diverged: %+v vs %+v", i, out[i], clean[i])
		}
	}
	if hits.Load() == 0 {
		t.Fatal("straggler injector never fired")
	}
	if stats.SpeculativeLaunches == 0 {
		t.Fatalf("no speculative backup launched: %+v", stats)
	}
	if stats.SpeculativeWins > stats.SpeculativeLaunches {
		t.Fatalf("wins %d exceed launches %d", stats.SpeculativeWins, stats.SpeculativeLaunches)
	}
}

// TestContextPolicyAndInjectorApply verifies jobs inherit the retry
// policy and injector from the context when the Config leaves them
// unset — the path used by the modeldata facade.
func TestContextPolicyAndInjectorApply(t *testing.T) {
	splits := chaosDocs()
	ctx := parallel.WithRetryPolicy(context.Background(), parallel.RetryPolicy{
		MaxRetries: 3,
		Backoff:    20 * time.Microsecond,
	})
	ctx = parallel.WithFaultInjector(ctx, parallel.CrashAttempts{Stage: "reduce", Index: 1, Times: 1})
	clean, _, err := RunCtx(context.Background(), Config{Mappers: 4, Reducers: 3}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := RunCtx(ctx, Config{Mappers: 4, Reducers: 3}, splits, countWords, sumCounts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if out[i] != clean[i] {
			t.Fatalf("pair %d diverged: %+v vs %+v", i, out[i], clean[i])
		}
	}
	if stats.Retries != 1 {
		t.Fatalf("retries = %d, want 1 (the crashed reduce attempt)", stats.Retries)
	}
}
