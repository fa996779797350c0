package mcdb

import (
	"context"
	"fmt"
	"sync"

	"modeldata/internal/engine"
	"modeldata/internal/lru"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// Metric names reported by the session into the per-run registry
// (parallel.StatsFrom(ctx).Registry()). All counter updates are
// nil-safe, so instrumentation costs nothing when no Stats is attached.
const (
	// MetricRealizeCacheHits counts Session.Exec calls served from the
	// bundle-realization cache.
	MetricRealizeCacheHits = "mcdb.realize_cache_hits"
	// MetricRealizeCacheMisses counts bundle realizations paid for.
	MetricRealizeCacheMisses = "mcdb.realize_cache_misses"
	// MetricRealizeCacheEvictions counts realized bundle sets dropped
	// from the session's bounded LRU to stay within its capacity.
	MetricRealizeCacheEvictions = "mcdb.realize_cache_evictions"
)

// DefaultBundleCacheCap bounds the bundle-realization cache of a
// Session created with NewSession. Each entry holds the full bundle
// tables for one (iterations, seed) pair, so in a long-running process
// an unbounded map would grow with every distinct seed a caller ever
// used — a memory leak. Eight entries keep the common
// repeat-the-same-run case hot while bounding residency.
const DefaultBundleCacheCap = 8

// DefaultPreparedCacheCap bounds the per-session prepared-statement
// cache. Each entry pins a parsed plan plus its join-order cache, and a
// session serving arbitrary SQL text (the query service's tenants do)
// would otherwise grow one entry per distinct statement forever — the
// same leak class the bundle cache already closes. Sixty-four keeps any
// realistic statement working set resident.
const DefaultPreparedCacheCap = 64

// This file unifies the two MCDB execution strategies behind one entry
// point. Historically callers chose between MonteCarlo (arbitrary
// query closure, full re-instantiation per iteration) and
// InstantiateBundled + BundleTable.Estimate (plan-once tuple bundles)
// — two divergent call paths with different query representations. A
// Session executes one declarative AggQuery under either strategy, so
// strategy choice becomes a knob rather than a rewrite.

// Strategy selects how a Session executes a query.
type Strategy int

// Execution strategies.
const (
	// StrategyAuto bundles when the target spec declares uncertain
	// columns (the fast path) and falls back to naive otherwise.
	StrategyAuto Strategy = iota
	// StrategyNaive re-instantiates the database per iteration.
	StrategyNaive
	// StrategyBundle executes the plan once over tuple bundles.
	StrategyBundle
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNaive:
		return "naive"
	case StrategyBundle:
		return "bundle"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// AggQuery is the declarative query form both strategies execute:
//
//	SELECT Fn(Col) FROM Table
//	WHERE WhereDet(deterministic attrs) AND WhereUnc(uncertain attrs)
//
// evaluated once per Monte Carlo iteration, yielding one sample of the
// query-result distribution per iteration. WhereDet must inspect only
// deterministic columns (on the bundle path the uncertain positions of
// its row argument hold zero Values); WhereUnc receives the tuple's
// uncertain values at the current iteration, ordered as the spec's
// UncertainCols. Supported aggregates: COUNT, SUM, AVG.
type AggQuery struct {
	Table    string
	Col      string
	Fn       engine.AggFunc
	WhereDet func(det engine.Row) bool
	WhereUnc UncPredicate
}

// ExecOptions configure one Session.Exec call.
type ExecOptions struct {
	Strategy   Strategy
	Iterations int
	// Workers bounds fan-out; zero uses the context default.
	Workers int
	Seed    uint64
}

// Session executes AggQueries over an MCDB, caching bundle
// realizations so repeated queries against the same (iterations, seed)
// pay the VG sampling cost once. The cache is a bounded LRU (see
// DefaultBundleCacheCap); evictions are counted under
// MetricRealizeCacheEvictions. A Session is safe for concurrent use.
type Session struct {
	db *DB

	bundles *lru.Cache[bundleKey, map[string]*BundleTable]

	prepared *lru.Cache[string, *engine.Prepared]

	// explainMu guards the lazily built seed-0 instantiation that
	// EXPLAIN plans against; building it once per session keeps
	// repeated EXPLAINs from paying a full instantiation each call.
	explainMu   sync.Mutex
	explainInst *engine.Database // guarded by explainMu
}

type bundleKey struct {
	iters int
	seed  uint64
}

// NewSession opens a query session over the database with the default
// bundle-cache capacity.
func (db *DB) NewSession() *Session {
	return db.NewSessionCache(DefaultBundleCacheCap)
}

// NewSessionCache opens a query session whose bundle-realization cache
// holds at most capacity (iterations, seed) entries; capacity < 1 is
// clamped to 1. Long-running services size this to their per-tenant
// memory budget.
func (db *DB) NewSessionCache(capacity int) *Session {
	return &Session{
		db:       db,
		bundles:  lru.New[bundleKey, map[string]*BundleTable](capacity),
		prepared: lru.New[string, *engine.Prepared](DefaultPreparedCacheCap),
	}
}

// Exec runs q for opts.Iterations Monte Carlo iterations under the
// selected strategy and returns the per-iteration samples. Results for
// a given (strategy, iterations, seed) are bit-identical at any worker
// count; ctx cancellation aborts mid-run with ctx.Err().
//
// Aggregate semantics over an empty per-iteration selection (every
// tuple filtered out at that iteration): COUNT and SUM are 0, and AVG
// is defined as 0 as well — not NaN — so samples stay finite and the
// naive and bundle strategies agree bit-for-bit. See
// BundleTable.Estimate for the bundle-side statement of the same
// convention.
func (s *Session) Exec(ctx context.Context, q AggQuery, opts ExecOptions) ([]float64, error) {
	return s.ExecRange(ctx, q, opts, 0, opts.Iterations)
}

// ExecRange runs only the iteration window [lo, hi) of the
// opts.Iterations-iteration run Exec would perform, returning hi-lo
// samples. Windows are the sharding primitive: backends that partition
// [0, Iterations) into disjoint contiguous windows and concatenate
// their outputs in index order reproduce the single-node Exec
// bit-identically, because iteration i draws from substream i of the
// same seed regardless of which shard runs it. On the bundle strategy
// the realization covers all Iterations (bundles are per-tuple, not
// per-iteration) and the window selects from the estimated vector;
// the session cache amortizes that realization across a shard's
// queries.
func (s *Session) ExecRange(ctx context.Context, q AggQuery, opts ExecOptions, lo, hi int) ([]float64, error) {
	if opts.Iterations <= 0 {
		return nil, fmt.Errorf("mcdb: iters=%d", opts.Iterations)
	}
	if lo < 0 || hi > opts.Iterations || lo > hi {
		return nil, fmt.Errorf("mcdb: window [%d, %d) outside [0, %d)", lo, hi, opts.Iterations)
	}
	spec, err := s.db.Spec(q.Table)
	if err != nil {
		return nil, err
	}
	switch q.Fn {
	case engine.AggCount, engine.AggSum, engine.AggAvg:
	default:
		return nil, fmt.Errorf("mcdb: aggregate %v not supported by Exec", q.Fn)
	}
	strategy := opts.Strategy
	if strategy == StrategyAuto {
		if len(spec.UncertainCols) > 0 {
			strategy = StrategyBundle
		} else {
			strategy = StrategyNaive
		}
	}
	ctx, span := obs.Start(ctx, "mcdb.exec")
	span.SetAttr("table", q.Table)
	span.SetAttr("strategy", strategy.String())
	span.SetInt("iterations", int64(opts.Iterations))
	span.SetInt("lo", int64(lo))
	span.SetInt("hi", int64(hi))
	defer span.End()
	switch strategy {
	case StrategyBundle:
		return s.execBundle(ctx, spec, q, opts, lo, hi)
	case StrategyNaive:
		return s.execNaive(ctx, spec, q, opts, lo, hi)
	default:
		return nil, fmt.Errorf("mcdb: unknown strategy %v", opts.Strategy)
	}
}

// bundlesFor returns (realizing on demand) the cached bundle tables for
// one (iterations, seed) configuration.
func (s *Session) bundlesFor(ctx context.Context, opts ExecOptions) (map[string]*BundleTable, error) {
	key := bundleKey{iters: opts.Iterations, seed: opts.Seed}
	reg := parallel.StatsFrom(ctx).Registry()
	if cached, ok := s.bundles.Get(key); ok {
		reg.Counter(MetricRealizeCacheHits).Add(1)
		return cached, nil
	}
	reg.Counter(MetricRealizeCacheMisses).Add(1)
	bundles, err := s.db.InstantiateBundledCtx(ctx, opts.Iterations, opts.Seed, opts.Workers)
	if err != nil {
		return nil, err
	}
	// A racing realization of the same key produced identical bundles
	// (same seed, deterministic runtime), so either copy may win.
	actual, _, evicted := s.bundles.GetOrAdd(key, bundles)
	if evicted > 0 {
		reg.Counter(MetricRealizeCacheEvictions).Add(int64(evicted))
	}
	return actual, nil
}

func (s *Session) execBundle(ctx context.Context, spec *TableSpec, q AggQuery, opts ExecOptions, lo, hi int) ([]float64, error) {
	bundles, err := s.bundlesFor(ctx, opts)
	if err != nil {
		return nil, err
	}
	bt, ok := bundles[q.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSpec, q.Table)
	}
	if q.WhereDet != nil {
		bt = bt.FilterDet(q.WhereDet)
	}
	full, err := bt.Estimate(q.Col, q.Fn, q.WhereUnc)
	if err != nil {
		return nil, err
	}
	if lo == 0 && hi == len(full) {
		return full, nil
	}
	return append([]float64(nil), full[lo:hi]...), nil
}

func (s *Session) execNaive(ctx context.Context, spec *TableSpec, q AggQuery, opts ExecOptions, lo, hi int) ([]float64, error) {
	colIdx, err := spec.Schema.ColIndex(q.Col)
	if err != nil {
		return nil, err
	}
	out := make([]float64, hi-lo)
	err = parallel.ForStreamsRange(ctx, rng.New(opts.Seed), opts.Iterations, lo, hi, parallel.Options{Workers: opts.Workers},
		func(i int, r *rng.Stream) error {
			inst, err := s.db.Instantiate(r)
			if err != nil {
				return err
			}
			tbl, err := inst.Get(q.Table)
			if err != nil {
				return err
			}
			var sum float64
			var count int
			uncBuf := make([]float64, len(spec.UncertainCols))
			for _, row := range tbl.Rows {
				if q.WhereDet != nil && !q.WhereDet(row) {
					continue
				}
				if q.WhereUnc != nil {
					for k, c := range spec.UncertainCols {
						uncBuf[k] = row[c].AsFloat()
					}
					if !q.WhereUnc(row, uncBuf) {
						continue
					}
				}
				sum += row[colIdx].AsFloat()
				count++
			}
			switch q.Fn {
			case engine.AggCount:
				out[i-lo] = float64(count)
			case engine.AggSum:
				out[i-lo] = sum
			case engine.AggAvg:
				// Empty selection: AVG is 0 by convention (matches the
				// bundle path in BundleTable.Estimate; see Exec).
				if count > 0 {
					out[i-lo] = sum / float64(count)
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- SQL over Monte Carlo instantiations ---
//
// ExecSQL runs an arbitrary scalar SELECT (joins, WHERE, GROUP BY —
// anything the engine's SQL dialect supports) once per Monte Carlo
// instantiation, where AggQuery is limited to one table and one
// aggregate. The statement is prepared once per Session; the engine's
// cost-based planner picks a join order on the first iteration and the
// Prepared choice cache replays it on the rest (every instantiation of
// a spec has the same row counts, so the cached order always matches).

// Prepared parses sql once and caches it on the session's bounded LRU.
// Repeated calls with the same text return the same *engine.Prepared,
// sharing its join-order cache; statements evicted past
// DefaultPreparedCacheCap are simply re-prepared on next use.
func (s *Session) Prepared(sql string) (*engine.Prepared, error) {
	if p, ok := s.prepared.Get(sql); ok {
		return p, nil
	}
	p, err := engine.Prepare(sql)
	if err != nil {
		return nil, err
	}
	// Two goroutines racing to prepare the same text agree on one
	// winner, so each statement keeps a single join-order cache.
	actual, _, _ := s.prepared.GetOrAdd(sql, p)
	return actual, nil
}

// ExecSQL runs a scalar SELECT for opts.Iterations Monte Carlo
// iterations — each against a fresh instantiation of the database —
// and returns the per-iteration samples. Like Exec, results for a
// given (iterations, seed) are bit-identical at any worker count.
// opts.Strategy is ignored: SQL always runs on full instantiations.
func (s *Session) ExecSQL(ctx context.Context, sql string, opts ExecOptions) ([]float64, error) {
	return s.ExecSQLRange(ctx, sql, opts, 0, opts.Iterations)
}

// ExecSQLRange runs only the iteration window [lo, hi) of the
// opts.Iterations-iteration run ExecSQL would perform, returning hi-lo
// samples — the SQL analogue of ExecRange, with the same
// shard-and-concatenate bit-identity guarantee.
func (s *Session) ExecSQLRange(ctx context.Context, sql string, opts ExecOptions, lo, hi int) ([]float64, error) {
	if opts.Iterations <= 0 {
		return nil, fmt.Errorf("mcdb: iters=%d", opts.Iterations)
	}
	if lo < 0 || hi > opts.Iterations || lo > hi {
		return nil, fmt.Errorf("mcdb: window [%d, %d) outside [0, %d)", lo, hi, opts.Iterations)
	}
	p, err := s.Prepared(sql)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "mcdb.sql")
	span.SetAttr("sql", sql)
	span.SetInt("iterations", int64(opts.Iterations))
	span.SetInt("lo", int64(lo))
	span.SetInt("hi", int64(hi))
	defer span.End()
	out := make([]float64, hi-lo)
	err = parallel.ForStreamsRange(ctx, rng.New(opts.Seed), opts.Iterations, lo, hi, parallel.Options{Workers: opts.Workers},
		func(i int, r *rng.Stream) error {
			inst, err := s.db.Instantiate(r)
			if err != nil {
				return err
			}
			v, err := p.Scalar(inst)
			if err != nil {
				return err
			}
			out[i-lo] = v
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExplainSQL renders the plan ExecSQL would run, in both text and JSON
// form. Plans depend on table statistics, so the statement is
// explained against a deterministic seed-0 instantiation — the same
// row counts (and thus the same plan) every instantiation gets. The
// instantiation is built at most once per session (under ctx, so a
// server handler can abort a slow build) and reused by every later
// EXPLAIN, whatever its statement.
func (s *Session) ExplainSQL(ctx context.Context, sql string) (string, []byte, error) {
	p, err := s.Prepared(sql)
	if err != nil {
		return "", nil, err
	}
	inst, err := s.explainInstance(ctx)
	if err != nil {
		return "", nil, err
	}
	tree, err := p.Explain(inst)
	if err != nil {
		return "", nil, err
	}
	data, err := tree.JSON()
	if err != nil {
		return "", nil, err
	}
	return tree.Text(), data, nil
}

// explainInstance returns the session's cached seed-0 instantiation,
// building it on first use. The build is serialized so concurrent
// first EXPLAINs pay for one instantiation, not one each.
func (s *Session) explainInstance(ctx context.Context) (*engine.Database, error) {
	s.explainMu.Lock()
	defer s.explainMu.Unlock()
	if s.explainInst != nil {
		return s.explainInst, nil
	}
	inst, err := s.db.InstantiateCtx(ctx, rng.New(0))
	if err != nil {
		return nil, err
	}
	s.explainInst = inst
	return inst, nil
}
