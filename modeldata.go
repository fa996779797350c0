package modeldata

import (
	"context"
	"fmt"
	"strings"
	"time"

	"modeldata/internal/experiments"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// DefaultSeed is the master seed used when WithSeed is not supplied —
// the paper's publication date, as everywhere else in this repo.
const DefaultSeed uint64 = 20140622

// Stats reports what one Run did: its wall-clock time and every metric
// reported during it, keyed by the DESIGN.md §8 names
// ("parallel.iterations", "task.retries", "engine.rows_scanned", …).
// The fault-tolerance counters (task attempts, retries, backoff) stay
// zero unless WithRetries enables the machinery or a fault injector is
// installed on the context.
type Stats struct {
	Elapsed time.Duration

	// Metrics is the per-run registry's snapshot merged with the
	// engine's global-registry delta. The relational engine's query
	// paths carry no context, so their counters come from diffing the
	// process-global registry (obs.Default) around the run; concurrent
	// Runs in one process see each other's engine activity here.
	Metrics obs.Snapshot
}

// Report renders the stats as a human-readable multi-line run report:
// the elapsed time, the iteration throughput, then each metric once.
func (s Stats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run report\n")
	fmt.Fprintf(&b, "  elapsed          %s\n", s.Elapsed.Round(time.Millisecond))
	rate := 0.0
	if el := s.Elapsed.Seconds(); el > 0 {
		rate = float64(s.Metrics.Counters[parallel.MetricIterations]) / el
	}
	fmt.Fprintf(&b, "  iterations/s     %.4g\n", rate)
	if len(s.Metrics.Counters)+len(s.Metrics.Gauges) > 0 {
		b.WriteString("  metrics:\n")
		for _, line := range strings.Split(s.Metrics.String(), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
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

// WithStats asks Run to fill *dst with its elapsed time and per-run
// metrics (iterations, shuffle bytes, fault-tolerance activity, engine
// and realize-cache counters) when it returns.
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
	if cfg.maxRetries > 0 {
		ctx = parallel.WithRetryPolicy(ctx, parallel.RetryPolicy{MaxRetries: cfg.maxRetries})
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
		// Engine metrics report into the process-global registry (the
		// query paths carry no context); the delta around the run
		// attributes them to it.
		delta := obs.Default().Snapshot().Sub(global0)
		*cfg.stats = Stats{
			Elapsed: ps.Elapsed(),
			Metrics: ps.Registry().Snapshot().Merge(delta),
		}
	}
	return res, err
}
