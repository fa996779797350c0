package modeldata

import (
	"context"
	"fmt"
	"strings"
	"time"

	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// DefaultSeed is the master seed used when WithSeed is not supplied —
// the paper's publication date, as everywhere else in this repo.
const DefaultSeed uint64 = 20140622

// Stats reports what one Run did: iterations completed across every
// parallel loop the experiment executed, estimated bytes moved through
// MapReduce shuffles, fault-tolerance activity (task attempts, retries,
// speculative backups, cumulative backoff), wall-clock time, and the
// resulting throughput. The fault-tolerance counters stay zero unless
// WithRetries/WithSpeculation enable the machinery or a fault injector
// is installed on the context.
type Stats struct {
	Iterations          int64
	ShuffleBytes        int64
	TaskAttempts        int64
	Retries             int64
	SpeculativeLaunches int64
	SpeculativeWins     int64
	BackoffTime         time.Duration
	Elapsed             time.Duration
	SamplesPerSec       float64

	// Engine activity attributed to this run. The relational engine's
	// query paths carry no context, so these come from diffing the
	// process-global registry (obs.Default) around the run; concurrent
	// Runs in one process see each other's engine activity here.
	RowsScanned int64
	// ColumnarQueries counts engine query executions;
	// ColumnarFallbacks counts queries the engine refused because a
	// table held a value not of its column's schema type
	// (engine.ErrMixedColumn) — there is no row route to fall back to.
	ColumnarQueries    int64
	ColumnarFallbacks  int64
	RealizeCacheHits   int64
	RealizeCacheMisses int64

	// Metrics is the full per-run metric snapshot (every counter and
	// gauge reported during the run, merged with the engine's
	// global-registry delta), keyed by the DESIGN.md §8 metric names.
	Metrics obs.Snapshot
}

// Report renders the stats as a human-readable multi-line run report.
func (s Stats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run report\n")
	fmt.Fprintf(&b, "  elapsed          %s\n", s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  iterations       %d (%.4g/s)\n", s.Iterations, s.SamplesPerSec)
	fmt.Fprintf(&b, "  rows scanned     %d\n", s.RowsScanned)
	fmt.Fprintf(&b, "  columnar path    %d queries, %d refused (mixed column)\n", s.ColumnarQueries, s.ColumnarFallbacks)
	fmt.Fprintf(&b, "  realize cache    %d hits, %d misses\n", s.RealizeCacheHits, s.RealizeCacheMisses)
	fmt.Fprintf(&b, "  shuffle          %d bytes\n", s.ShuffleBytes)
	fmt.Fprintf(&b, "  task attempts    %d (%d retries, backoff %s)\n",
		s.TaskAttempts, s.Retries, s.BackoffTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  speculation      %d launched, %d won\n", s.SpeculativeLaunches, s.SpeculativeWins)
	if len(s.Metrics.Counters)+len(s.Metrics.Gauges) > 0 {
		b.WriteString("  metrics:\n")
		for _, line := range strings.Split(s.Metrics.String(), "\n") {
			if line != "" {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	return b.String()
}

// config collects the options applied to one Run.
type config struct {
	seed       uint64
	workers    int
	progress   func(done, total int)
	stats      *Stats
	maxRetries int
	specFactor float64
	tracer     *obs.Tracer
	chaosProb  float64
	chaosSeed  uint64
}

// Option configures a Run call.
type Option func(*config)

// WithSeed sets the master random seed (default DefaultSeed). Equal
// seeds give bit-identical results at any worker count.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithWorkers bounds the parallelism of every Monte Carlo loop inside
// the experiment. Zero or negative means GOMAXPROCS. The worker count
// affects wall-clock time only, never the numbers produced.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithProgress registers a callback invoked as parallel loops complete
// iterations, with the completed and total counts of the current loop.
// Calls are serialized; the callback must not block for long.
func WithProgress(fn func(done, total int)) Option {
	return func(c *config) { c.progress = fn }
}

// WithStats asks Run to fill *dst with per-run counters (iterations,
// shuffle bytes, fault-tolerance activity, elapsed time, samples/sec)
// when it returns.
func WithStats(dst *Stats) Option {
	return func(c *config) { c.stats = dst }
}

// WithTracer records a hierarchical span for every traced operation of
// the run (experiment → Monte Carlo loops → MapReduce stages → task
// attempts) into tr. After Run returns, tr.Snapshot() holds the span
// tree and tr.WriteChromeTraceFile exports it for chrome://tracing /
// Perfetto. Tracing never changes the numbers produced — spans carry
// wall-clock timing only.
func WithTracer(tr *obs.Tracer) Option {
	return func(c *config) { c.tracer = tr }
}

// WithChaos installs a deterministic fault injector that panics each
// task attempt independently with probability prob, derived from the
// attempt's (stage, index, attempt) coordinates and seed. Combined with
// WithRetries it exercises the fault-tolerance path: a surviving run is
// bit-identical to a failure-free one. Zero prob is a no-op.
func WithChaos(prob float64, seed uint64) Option {
	return func(c *config) { c.chaosProb, c.chaosSeed = prob, seed }
}

// WithRetries grants every task in the run (MapReduce map/reduce tasks,
// parallel Monte Carlo iterations) a retry budget of n re-runs with
// exponential backoff before a failure aborts the experiment. Results
// are unchanged by retries: tasks replay their pre-split random
// substreams, so a run that survives faults is bit-identical to a
// failure-free run.
func WithRetries(n int) Option {
	return func(c *config) { c.maxRetries = n }
}

// WithSpeculation enables straggler mitigation in the MapReduce
// runtime: a task running longer than factor × the stage's median task
// time gets one speculative backup attempt, and the first result wins.
// Speculation affects wall-clock time and the Stats counters only,
// never the numbers produced.
func WithSpeculation(factor float64) Option {
	return func(c *config) { c.specFactor = factor }
}

// Run executes one experiment by ID. Cancellation of ctx aborts the
// experiment promptly with ctx.Err(); options configure the seed,
// worker bound, progress reporting, and stats collection. Results are
// deterministic in (id, seed) alone — see DESIGN.md for the substream
// determinism contract.
func Run(ctx context.Context, id string, opts ...Option) (ExperimentResult, error) {
	cfg := config{seed: DefaultSeed}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers > 0 {
		ctx = parallel.WithWorkers(ctx, cfg.workers)
	}
	if cfg.progress != nil {
		ctx = parallel.WithProgress(ctx, cfg.progress)
	}
	if cfg.maxRetries > 0 || cfg.specFactor > 0 {
		ctx = parallel.WithRetryPolicy(ctx, parallel.RetryPolicy{
			MaxRetries:        cfg.maxRetries,
			SpeculativeFactor: cfg.specFactor,
		})
	}
	if cfg.chaosProb > 0 {
		ctx = parallel.WithFaultInjector(ctx, parallel.PanicInjector{
			Prob: cfg.chaosProb,
			Seed: cfg.chaosSeed,
		})
	}
	if cfg.tracer != nil {
		ctx = obs.WithTracer(ctx, cfg.tracer)
	}
	var ps *parallel.Stats
	var global0 obs.Snapshot
	if cfg.stats != nil {
		ps = parallel.NewStats()
		ctx = parallel.WithStats(ctx, ps)
		global0 = obs.Default().Snapshot()
	}
	res, err := experiments.Run(ctx, id, cfg.seed)
	if cfg.stats != nil {
		snap := ps.Snapshot()
		// Engine metrics report into the process-global registry (the
		// query paths carry no context); the delta around the run
		// attributes them to it.
		delta := obs.Default().Snapshot().Sub(global0)
		run := ps.Registry().Snapshot()
		*cfg.stats = Stats{
			Iterations:          snap.Iterations,
			ShuffleBytes:        snap.ShuffleBytes,
			TaskAttempts:        snap.TaskAttempts,
			Retries:             snap.Retries,
			SpeculativeLaunches: snap.SpeculativeLaunches,
			SpeculativeWins:     snap.SpeculativeWins,
			BackoffTime:         snap.BackoffTime,
			Elapsed:             snap.Elapsed,
			SamplesPerSec:       snap.SamplesPerSec,
			RowsScanned:         delta.Counters[engine.MetricRowsScanned],
			ColumnarQueries:     delta.Counters[engine.MetricColQueries],
			ColumnarFallbacks:   delta.Counters[engine.MetricColFallback],
			RealizeCacheHits:    run.Counters[mcdb.MetricRealizeCacheHits],
			RealizeCacheMisses:  run.Counters[mcdb.MetricRealizeCacheMisses],
			Metrics:             run.Merge(delta),
		}
	}
	return res, err
}
