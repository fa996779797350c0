// Package parallel is the deterministic fan-out runtime underneath
// every embarrassingly parallel Monte Carlo loop in this repository:
// MCDB naive and tuple-bundle realization (§2.1), SimSQL chain
// replicates, particle propagation and weighting (Algorithm 2, §3.2),
// MapReduce map/reduce stages (§2.2), and DoE design-point evaluation
// (§4).
//
// # Determinism contract
//
// A parallel loop produces output that is bit-identical to sequential
// execution at any worker count. The contract has two halves:
//
//  1. Randomness is assigned by iteration index, not by scheduling:
//     callers pre-split one rng.Stream substream per iteration from the
//     parent stream, in index order (rng.Stream.SplitN), before any
//     worker starts. ForStreams packages this pattern.
//  2. Each iteration writes only to its own index-addressed slot, and
//     any cross-iteration reduction happens after the loop, in index
//     order.
//
// Under these rules the worker count changes wall-clock time and
// nothing else, which is what makes `go test -race` plus the root
// determinism suite a meaningful check.
//
// # Context plumbing
//
// Worker bounds, progress callbacks, and per-run Stats counters travel
// through context.Context (WithWorkers, WithProgress, WithStats), so
// the public facade can configure a whole experiment run without every
// intermediate layer threading extra parameters.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"modeldata/internal/obs"
	"modeldata/internal/rng"
)

// Options configure one parallel loop.
type Options struct {
	// Workers bounds loop parallelism. Zero or negative means "use the
	// context default" (WorkersFrom: WithWorkers value, else
	// GOMAXPROCS).
	Workers int
	// NoFaults opts this loop out of the fault-tolerance machinery
	// entirely — no injection, no panic recovery, no retries — for
	// loops whose iterations mutate shared state in place and therefore
	// cannot be re-run (e.g. DSGD row updates). Such loops keep the
	// pre-fault-tolerance semantics: a panic propagates and crashes.
	NoFaults bool
}

// errBox carries the first error through an atomic.Value (which
// requires a single concrete stored type).
type errBox struct{ err error }

// For runs fn(i) for every i in [0, n) on a bounded worker pool and
// returns the first error. Iterations must follow the package
// determinism contract: write only to slot i, derive randomness only
// from per-index state. Cancellation of ctx is observed between
// iterations; a canceled run returns ctx.Err() without starting further
// iterations. Progress and Stats hooks installed on ctx are serviced
// after each completed iteration.
//
// When a retry policy (WithRetryPolicy) or a fault injector
// (WithFaultInjector) is present on ctx and Options.NoFaults is unset,
// each iteration becomes a fault-tolerant task: a panic is recovered
// into an error, and failed attempts are re-run serially on the same
// worker with exponential backoff up to MaxRetries before failing the
// loop. Retried iterations re-run fn(i) from scratch, so fn
// must be re-runnable: it must fully overwrite slot i on success and
// derive randomness from state reset at attempt start (ForStreams
// arranges this automatically). Each iteration runs on one worker at a
// time, so slot i has one writer. The attempt counts, retries and
// backoff are credited to the context's Stats; without a policy or an
// injector nothing is counted there but iterations, and a panic
// propagates.
func For(ctx context.Context, n int, opts Options, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = WorkersFrom(ctx)
	}
	if workers > n {
		workers = n
	}
	stats := StatsFrom(ctx)
	progress := progressFrom(ctx)

	// Tracing: one span for the loop, one child span per iteration.
	// Both are skipped entirely (no allocation, no ctx growth) when no
	// tracer is installed, so the hot path is unchanged for untraced
	// runs.
	traced := obs.Enabled(ctx)
	if traced {
		var loopSpan *obs.Span
		ctx, loopSpan = obs.Start(ctx, "parallel.for")
		loopSpan.SetInt("n", int64(n))
		loopSpan.SetInt("workers", int64(workers))
		defer loopSpan.End()
	}

	// run executes one iteration, through the retry machinery when a
	// policy or injector is installed.
	run := func(ctx context.Context, i int) error { return fn(i) }
	if !opts.NoFaults {
		pol, havePol := RetryPolicyFrom(ctx)
		if inj := InjectorFrom(ctx); havePol || inj != nil {
			stage, ok := ctx.Value(stageKey).(string)
			if !ok {
				stage = "parallel"
			}
			run = func(ctx context.Context, i int) error {
				return runTaskAttempts(ctx, stage, i, pol, inj, stats, func() error { return fn(i) })
			}
		}
	}
	if traced {
		inner := run
		run = func(ctx context.Context, i int) error {
			_, sp := obs.Start(ctx, "parallel.iter")
			sp.SetAttr("i", strconv.Itoa(i))
			err := inner(ctx, i)
			sp.End()
			return err
		}
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(ctx, i); err != nil {
				return err
			}
			stats.AddIterations(1)
			if progress != nil {
				progress.report(i+1, n)
			}
		}
		return nil
	}

	loopCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		done     atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if loopCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(loopCtx, i); err != nil {
					firstErr.CompareAndSwap(nil, errBox{err})
					cancel()
					return
				}
				d := done.Add(1)
				stats.AddIterations(1)
				if progress != nil {
					progress.report(int(d), n)
				}
			}
		}()
	}
	wg.Wait()
	if box, ok := firstErr.Load().(errBox); ok {
		return box.err
	}
	return ctx.Err()
}

// ForStreams runs fn(i, streams[i]) for every i in [0, n), where the
// substreams are pre-split from parent sequentially in index order
// before any worker starts — the canonical deterministic Monte Carlo
// loop. The parent stream is advanced exactly n splits regardless of
// worker count, so a caller that continues drawing from parent after
// the loop (e.g. for a resampling step) stays on the sequential
// trajectory too.
//
// Each invocation of fn receives a fresh copy of iteration i's pristine
// substream, so a retried iteration (see For) replays exactly the same
// random sequence as a first-try success: results under any fault
// injector that eventually lets every iteration succeed are
// bit-identical to the failure-free run.
func ForStreams(ctx context.Context, parent *rng.Stream, n int, opts Options, fn func(i int, r *rng.Stream) error) error {
	return ForStreamsRange(ctx, parent, n, 0, n, opts, fn)
}

// ForStreamsRange runs the window [lo, hi) of an n-iteration
// deterministic loop: substreams are pre-split from parent exactly as
// ForStreams would split them for the full n-iteration run, but only
// the window's iterations execute (fn still receives the global index
// i ∈ [lo, hi)). This is the sharding primitive: backends that
// partition [0, n) into disjoint contiguous windows and concatenate
// their outputs in index order reproduce the single-node run
// bit-identically, because iteration i draws from substream i no
// matter which shard runs it. The parent stream is advanced exactly n
// splits regardless of the window (even an empty one), preserving the
// ForStreams trajectory for callers that keep drawing afterwards.
func ForStreamsRange(ctx context.Context, parent *rng.Stream, n, lo, hi int, opts Options, fn func(i int, r *rng.Stream) error) error {
	if n <= 0 {
		return nil
	}
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("parallel: window [%d, %d) outside [0, %d)", lo, hi, n)
	}
	streams := parent.SplitN(n)
	return For(ctx, hi-lo, opts, func(j int) error {
		i := lo + j
		sub := *streams[i] // pristine per-attempt copy: retries replay the substream
		return fn(i, &sub)
	})
}

type ctxKey int

const (
	workersKey ctxKey = iota
	statsKey
	progressKey
	retryKey
	injectorKey
	stageKey
)

// WithStage returns a context whose parallel loops name their tasks
// stage[i], not parallel[i], to a fault injector (TaskInfo.Stage) and
// in the error of a task that exhausts its retries — how a MapReduce
// job says which of its stages failed.
func WithStage(ctx context.Context, stage string) context.Context {
	return context.WithValue(ctx, stageKey, stage)
}

// WithWorkers returns a context whose parallel loops default to n
// workers (for loops that do not set Options.Workers explicitly).
func WithWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, workersKey, n)
}

// WorkersFrom returns the context's default worker bound:
// the WithWorkers value if positive, else GOMAXPROCS.
func WorkersFrom(ctx context.Context) int {
	if n, ok := ctx.Value(workersKey).(int); ok && n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// progressHook serializes a user progress callback so callers need not
// make it safe for concurrent use.
type progressHook struct {
	mu sync.Mutex
	fn func(done, total int)
}

func (p *progressHook) report(done, total int) {
	p.mu.Lock()
	p.fn(done, total)
	p.mu.Unlock()
}

// WithProgress returns a context whose parallel loops report each
// completed iteration to fn as fn(done, total). The callback is invoked
// once per finished iteration of each loop (done counts completions,
// which under parallelism is not the same as the highest finished
// index), is serialized by the runtime, and must be cheap — it runs on
// the worker's critical path.
func WithProgress(ctx context.Context, fn func(done, total int)) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey, &progressHook{fn: fn})
}

func progressFrom(ctx context.Context) *progressHook {
	h, _ := ctx.Value(progressKey).(*progressHook)
	return h
}

// WithStats returns a context whose parallel loops (and the MapReduce
// shuffle) accumulate counters into s. A nil s is accepted and means
// "no accounting".
func WithStats(ctx context.Context, s *Stats) context.Context {
	return context.WithValue(ctx, statsKey, s)
}

// StatsFrom returns the Stats collector installed on ctx, or nil. All
// Stats methods are nil-safe, so callers may use the result without
// checking.
func StatsFrom(ctx context.Context) *Stats {
	s, _ := ctx.Value(statsKey).(*Stats)
	return s
}
