package modeldata_test

// The fault-tolerance half of the determinism contract, verified end to
// end through the public facade: an experiment run under injected task
// crashes and straggler latency must report numbers bit-identical to
// the failure-free run at any worker count, because failed attempts
// discard their partial state and retries replay the task's pre-split
// random substream.

import (
	"context"
	"errors"
	"testing"
	"time"

	"modeldata"
	"modeldata/internal/parallel"
)

// chaosInjector is the standard chaos mix: ~20% of attempts crash,
// ~10% stall. Decisions hash from the attempt identity, so the same
// attempts fail at every worker count.
func chaosInjector(seed uint64) parallel.FaultInjector {
	return parallel.Chain{
		parallel.PanicInjector{Prob: 0.2, Seed: seed},
		parallel.LatencyInjector{Prob: 0.1, Delay: 200 * time.Microsecond, Seed: seed + 1},
	}
}

// TestRunDeterministicUnderFaults compares a chaos run of the Splash
// time-alignment experiment (E4, MapReduce-backed) against the clean
// run, exactly, at workers 1, 2, and 8.
func TestRunDeterministicUnderFaults(t *testing.T) {
	clean, err := modeldata.Run(context.Background(), "E4", modeldata.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sawAttempts := false
	for _, w := range workerCounts {
		ctx := parallel.WithFaultInjector(context.Background(), chaosInjector(17))
		var st modeldata.Stats
		res, err := modeldata.Run(ctx, "E4",
			modeldata.WithSeed(3),
			modeldata.WithWorkers(w),
			modeldata.WithRetries(8),
			modeldata.WithStats(&st))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(res.Rows) != len(clean.Rows) {
			t.Fatalf("workers=%d: %d rows vs %d", w, len(res.Rows), len(clean.Rows))
		}
		for i := range res.Rows {
			if res.Rows[i] != clean.Rows[i] {
				t.Fatalf("workers=%d row %d: %+v vs %+v", w, i, res.Rows[i], clean.Rows[i])
			}
		}
		c := st.Metrics.Counters
		if c[parallel.MetricAttempts] > 0 {
			sawAttempts = true
		}
		if c[parallel.MetricRetries] > 0 && c[parallel.MetricBackoffNanos] <= 0 {
			t.Fatalf("workers=%d: retries without backoff:\n%s", w, st.Report())
		}
	}
	if !sawAttempts {
		t.Fatal("no run recorded task attempts — fault machinery not engaged")
	}
}

// TestRunExhaustedRetriesSurfaceError pins the failure mode: an
// injector nothing can outlast aborts the run with the injected fault
// visible in the chain.
func TestRunExhaustedRetriesSurfaceError(t *testing.T) {
	ctx := parallel.WithFaultInjector(context.Background(),
		parallel.PanicInjector{Prob: 1, Seed: 1})
	_, err := modeldata.Run(ctx, "E4", modeldata.WithSeed(3), modeldata.WithRetries(1))
	if err == nil {
		t.Fatal("run survived Prob=1 crashes")
	}
	if !errors.Is(err, parallel.ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault in chain", err)
	}
}
