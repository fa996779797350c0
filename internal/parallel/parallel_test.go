package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"modeldata/internal/rng"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 100
		counts := make([]atomic.Int64, n)
		err := For(context.Background(), n, Options{Workers: workers}, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForZeroIterations(t *testing.T) {
	if err := For(context.Background(), 0, Options{}, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := For(context.Background(), 50, Options{Workers: workers}, func(i int) error {
			if i == 17 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v", workers, err)
		}
	}
}

func TestForObservesCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		errCh := make(chan error, 1)
		go func() {
			errCh <- For(ctx, 1_000_000, Options{Workers: workers}, func(i int) error {
				started.Add(1)
				time.Sleep(100 * time.Microsecond)
				return nil
			})
		}()
		for started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-errCh:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: got %v", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: loop did not stop after cancel", workers)
		}
		if s := started.Load(); s >= 1_000_000 {
			t.Fatalf("workers=%d: loop ran to completion despite cancel", workers)
		}
	}
}

func TestForPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := For(ctx, 10, Options{}, func(int) error {
		t.Fatal("fn called under canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

// TestForStreamsDeterministic is the package-level half of the
// determinism contract: identical output and identical parent stream
// state at any worker count.
func TestForStreamsDeterministic(t *testing.T) {
	run := func(workers int) ([]float64, uint64) {
		parent := rng.New(42)
		const n = 200
		out := make([]float64, n)
		err := ForStreams(context.Background(), parent, n, Options{Workers: workers}, func(i int, r *rng.Stream) error {
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
		return out, parent.Uint64()
	}
	ref, refNext := run(1)
	for _, workers := range []int{2, 8} {
		got, gotNext := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, got[i], ref[i])
			}
		}
		if gotNext != refNext {
			t.Fatalf("workers=%d: parent stream diverged", workers)
		}
	}
}

func TestProgressReportsEveryIteration(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		var last atomic.Int64
		ctx := WithProgress(context.Background(), func(done, total int) {
			calls.Add(1)
			if total != 30 {
				t.Errorf("total = %d", total)
			}
			last.Store(int64(done))
		})
		if err := For(ctx, 30, Options{Workers: workers}, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 30 {
			t.Fatalf("workers=%d: %d progress calls", workers, calls.Load())
		}
		if last.Load() != 30 {
			t.Fatalf("workers=%d: final done = %d", workers, last.Load())
		}
	}
}

func TestStatsCountIterationsAndShuffle(t *testing.T) {
	s := NewStats()
	ctx := WithStats(context.Background(), s)
	if err := For(ctx, 25, Options{Workers: 4}, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	StatsFrom(ctx).AddShuffleBytes(512)
	snap := s.Registry().Snapshot()
	if snap.Counters[MetricIterations] != 25 || snap.Counters[MetricShuffleBytes] != 512 {
		t.Fatalf("snapshot:\n%s", snap)
	}
}

func TestNilStatsIsSafe(t *testing.T) {
	var s *Stats
	s.AddIterations(1)
	s.AddShuffleBytes(1)
	if s.Registry().Counter(MetricIterations).Value() != 0 || s.Elapsed() != 0 {
		t.Fatal("nil stats counted something")
	}
	// A context with no stats yields a nil collector usable directly.
	StatsFrom(context.Background()).AddIterations(5)
}

func TestWorkersFromDefaults(t *testing.T) {
	if WorkersFrom(context.Background()) < 1 {
		t.Fatal("default workers < 1")
	}
	ctx := WithWorkers(context.Background(), 3)
	if WorkersFrom(ctx) != 3 {
		t.Fatalf("got %d", WorkersFrom(ctx))
	}
	// Non-positive override falls back to the default.
	if WorkersFrom(WithWorkers(context.Background(), 0)) < 1 {
		t.Fatal("zero workers accepted")
	}
}

// TestForStreamsRangeShardsBitIdentical checks the sharding primitive:
// disjoint windows of one n-iteration loop, concatenated in index
// order, reproduce the full ForStreams run exactly — and the parent
// stream ends on the same trajectory either way.
func TestForStreamsRangeShardsBitIdentical(t *testing.T) {
	const n = 23
	draw := func(out []float64) func(i int, r *rng.Stream) error {
		return func(i int, r *rng.Stream) error {
			out[i] = r.Normal(0, 1) + float64(i)
			return nil
		}
	}

	full := make([]float64, n)
	parentFull := rng.New(99)
	if err := ForStreams(context.Background(), parentFull, n, Options{Workers: 4}, draw(full)); err != nil {
		t.Fatal(err)
	}

	// Each shard re-seeds its own parent from the query seed — the
	// substream for iteration i is then identical on every shard.
	sharded := make([]float64, n)
	var lastParent *rng.Stream
	for _, w := range [][2]int{{0, 7}, {7, 7}, {7, 16}, {16, n}} { // includes an empty window
		parent := rng.New(99)
		if err := ForStreamsRange(context.Background(), parent, n, w[0], w[1], Options{Workers: 3}, draw(sharded)); err != nil {
			t.Fatal(err)
		}
		lastParent = parent
	}
	for i := range full {
		if sharded[i] != full[i] {
			t.Fatalf("iter %d: sharded %v != full %v", i, sharded[i], full[i])
		}
	}
	// Every call advances its parent exactly n splits, window or not,
	// matching the ForStreams trajectory contract.
	ref := rng.New(99)
	for i := 0; i < n; i++ {
		ref.Split()
	}
	if ref.Uint64() != lastParent.Uint64() {
		t.Fatal("parent stream trajectory diverged from split count contract")
	}
}

func TestForStreamsRangeBadWindow(t *testing.T) {
	for _, w := range [][2]int{{-1, 2}, {0, 11}, {5, 4}} {
		err := ForStreamsRange(context.Background(), rng.New(1), 10, w[0], w[1], Options{}, func(int, *rng.Stream) error { return nil })
		if err == nil {
			t.Fatalf("window %v: expected error", w)
		}
	}
}
