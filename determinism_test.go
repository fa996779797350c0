package modeldata_test

// The determinism contract of internal/parallel, verified end to end:
// every parallel hot loop must produce bit-identical results at any
// worker count, because each iteration consumes its own random
// substream split from the parent in iteration order before the fan-
// out. These tests compare exact float64 values — no tolerances — at
// workers 1, 2, and 8, and check that cancellation is honored promptly
// with ctx.Err().

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"modeldata"
	"modeldata/internal/assimilate"
	"modeldata/internal/doe"
	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mapreduce"
	"modeldata/internal/mcdb"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

var workerCounts = []int{1, 2, 8}

// equalExact fails unless a and b are identical float slices (NaN
// compares equal to NaN so a genuine bit-level divergence is never
// masked by NaN semantics).
func equalExact(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("%s: index %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestMCDBSessionDeterministicAcrossWorkers covers the bundle executor
// end to end; internal/mcdb's oracle (oracle_test.go) holds the same
// contract for every executor, over every spec shape.
func TestMCDBSessionDeterministicAcrossWorkers(t *testing.T) {
	db, err := experiments.SBPDatabase(40)
	if err != nil {
		t.Fatal(err)
	}
	q := mcdb.AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg}
	var ref []float64
	for _, w := range workerCounts {
		got, err := db.NewSession().Exec(context.Background(), q, mcdb.ExecOptions{
			Iterations: 60,
			Workers:    w,
			Seed:       7,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		equalExact(t, "mcdb session", ref, got)
	}
}

// scalarFilter builds a small linear-Gaussian bootstrap filter over a
// shared synthetic observation sequence.
func scalarFilter(n, workers int) (*assimilate.Filter[float64, float64], []float64, error) {
	model := assimilate.BootstrapModel(
		func(r *rng.Stream) float64 { return r.Normal(0, 1) },
		func(prev float64, r *rng.Stream) float64 { return 0.9*prev + r.Normal(0, 0.3) },
		func(x, y float64) float64 { d := x - y; return -d * d / 2 },
	)
	f, err := assimilate.NewFilter(model, n, 11)
	if err != nil {
		return nil, nil, err
	}
	f.Workers = workers
	obsRNG := rng.New(99)
	obs := make([]float64, 12)
	for i := range obs {
		obs[i] = obsRNG.Normal(0, 1)
	}
	return f, obs, nil
}

func TestParticleFilterDeterministicAcrossWorkers(t *testing.T) {
	var refMeans []float64
	var refESS []float64
	for _, w := range workerCounts {
		f, obs, err := scalarFilter(64, w)
		if err != nil {
			t.Fatal(err)
		}
		var means []float64
		for _, y := range obs {
			ps, err := f.StepCtx(context.Background(), y)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			sum := 0.0
			for _, p := range ps {
				sum += p.W * p.X
			}
			means = append(means, sum)
		}
		if refMeans == nil {
			refMeans, refESS = means, f.ESSTrace
			continue
		}
		equalExact(t, "posterior means", refMeans, means)
		equalExact(t, "ESS trace", refESS, f.ESSTrace)
	}
}

func TestDesignEvaluationDeterministicAcrossWorkers(t *testing.T) {
	d := doe.ResolutionIII7()
	sim := func(levels []int, r *rng.Stream) float64 {
		v := 0.0
		for _, l := range levels {
			v += float64(l) * r.Normal(1, 0.1)
		}
		return v
	}
	var ref []float64
	for _, w := range workerCounts {
		got, err := doe.EvaluateDesign(context.Background(), d, sim, doe.EvalOptions{
			Replications: 3, Seed: 5, Workers: w,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		equalExact(t, "design responses", ref, got)
	}
}

// TestRunDeterministicAcrossWorkers exercises the public facade: a full
// experiment must report identical numbers whatever WithWorkers says.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var ref modeldata.ExperimentResult
	for _, w := range workerCounts {
		res, err := modeldata.Run(context.Background(), "F4",
			modeldata.WithSeed(3), modeldata.WithWorkers(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if w == workerCounts[0] {
			ref = res
			continue
		}
		if len(res.Rows) != len(ref.Rows) {
			t.Fatalf("workers=%d: %d rows vs %d", w, len(res.Rows), len(ref.Rows))
		}
		for i := range res.Rows {
			if res.Rows[i] != ref.Rows[i] {
				t.Fatalf("workers=%d row %d: %+v vs %+v", w, i, res.Rows[i], ref.Rows[i])
			}
		}
	}
}

// TestCancellationPromptness cancels a large Monte Carlo run mid-loop
// and requires it to stop with ctx.Err() well before finishing.
func TestCancellationPromptness(t *testing.T) {
	db, err := experiments.SBPDatabase(200)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := db.MonteCarlo(ctx, 1_000_000, 1, 2, func(inst *engine.Database) (float64, error) {
			return 0, nil
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop promptly after cancellation")
	}
}

// TestMapReduceCancellation verifies the mapreduce runtime returns
// ctx.Err() rather than running every stage on a canceled context.
func TestMapReduceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	splits := make([]any, 32)
	for i := range splits {
		splits[i] = i
	}
	_, _, err := mapreduce.RunCtx(ctx, mapreduce.Config{}, splits,
		func(split any, emit func(mapreduce.Pair)) error {
			emit(mapreduce.Pair{Key: "k", Value: 1.0})
			return nil
		},
		func(key string, values []any, emit func(mapreduce.Pair)) error {
			emit(mapreduce.Pair{Key: key, Value: len(values)})
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunStatsAndProgress checks the per-run counters and progress
// callback wiring of the options API, on E1 (MCDB bundles) and E4
// (MapReduce). Without a retry policy or an injector no task attempt
// is counted: the fault-tolerance counters stay zero.
func TestRunStatsAndProgress(t *testing.T) {
	for _, id := range []string{"E1", "E4"} {
		var st modeldata.Stats
		calls := 0
		res, err := modeldata.Run(context.Background(), id,
			modeldata.WithSeed(3),
			modeldata.WithStats(&st),
			modeldata.WithProgress(func(done, total int) { calls++ }))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verdict {
			t.Fatalf("%s failed to reproduce", id)
		}
		if st.Metrics.Counters[parallel.MetricIterations] == 0 {
			t.Fatalf("%s: stats recorded no iterations:\n%s", id, st.Report())
		}
		if got := st.Metrics.Counters[parallel.MetricAttempts]; got != 0 {
			t.Fatalf("%s: %d task attempts counted without retries or an injector:\n%s", id, got, st.Report())
		}
		if st.Elapsed <= 0 {
			t.Fatalf("%s: implausible elapsed time:\n%s", id, st.Report())
		}
		if calls == 0 {
			t.Fatalf("%s: progress callback never invoked", id)
		}
	}
}
