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
	// MetricSQLPlanOnce counts ExecSQLRange windows answered by the
	// plan-once executor; MetricSQLPerInstance those that re-ran the
	// statement per instantiated database.
	MetricSQLPlanOnce    = "mcdb.sql_plan_once"
	MetricSQLPerInstance = "mcdb.sql_per_instance"
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

// AggQuery is the declarative query form both executors run:
//
//	SELECT Fn(Col) FROM Table
//	WHERE WhereDet(deterministic attrs)
//	  AND UncWhere[0] AND … AND WhereUnc(uncertain attrs)
//
// evaluated once per Monte Carlo iteration, yielding one sample of the
// query-result distribution per iteration. WhereDet must inspect only
// deterministic columns (on the bundle path the uncertain positions of
// its row argument hold zero Values). UncWhere's conjuncts compare the
// tuple's uncertain values with literals; they are data, which the
// bundle kernel tests over a whole run of iterations, and a spec that
// declares no UncertainCols admits none. WhereUnc receives the tuple's
// uncertain values at the current iteration, ordered as the spec's
// UncertainCols — none, for a spec that declares none, whose realized
// rows WhereDet sees whole — and is called only where UncWhere holds.
// Supported aggregates: COUNT, SUM, AVG.
type AggQuery struct {
	Table    string
	Col      string
	Fn       engine.AggFunc
	WhereDet func(det engine.Row) bool
	UncWhere []UncCmp
	WhereUnc UncPredicate
}

// ExecOptions configure one Session.Exec call.
type ExecOptions struct {
	Iterations int
	// Workers bounds fan-out; zero uses the context default.
	Workers int
	Seed    uint64
}

// Session executes AggQueries over an MCDB, caching bundle
// realizations so repeated queries against the same (iterations, seed)
// pay the VG sampling cost once. The cache is a bounded LRU (see
// DefaultBundleCacheCap); evictions are counted under
// MetricRealizeCacheEvictions. What does not depend on the seed is
// resolved once per session: the FOR EACH and VG parameter rows, on the
// first call that needs them, and each SQL statement's plan-once
// binding, on the statement's first run. DB.Base must therefore not
// change while the Session is live. A Session is safe for concurrent
// use.
type Session struct {
	db *DB

	bundles *lru.Cache[bundleKey, map[string]*BundleTable]

	prepared *lru.Cache[string, *statement]

	// inMu guards the lazily built instancer every route realizes from.
	inMu sync.Mutex
	in   *instancer // guarded by inMu

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
		prepared: lru.New[string, *statement](DefaultPreparedCacheCap),
	}
}

// instancer returns the session's resolved outer and parameter rows,
// resolving them under ctx on first use. A failed or cancelled build is
// not kept: the next call tries again.
func (s *Session) instancer(ctx context.Context) (*instancer, error) {
	s.inMu.Lock()
	defer s.inMu.Unlock()
	if s.in == nil {
		in, err := s.db.newInstancer(ctx)
		if err != nil {
			return nil, err
		}
		s.in = in
	}
	return s.in, nil
}

// Exec runs q for opts.Iterations Monte Carlo iterations and returns
// the per-iteration samples: over tuple bundles when q.Table's spec
// declares UncertainCols, per instantiated database when it declares
// none. Results for a given (iterations, seed) are bit-identical at any
// worker count; ctx cancellation aborts mid-run with ctx.Err().
//
// Aggregate semantics over an empty per-iteration selection (every
// tuple filtered out at that iteration): COUNT and SUM are 0, and AVG
// is defined as 0 as well — not NaN — so samples stay finite, on both
// executors. See BundleTable.Estimate for the bundle-side statement of
// the same convention.
func (s *Session) Exec(ctx context.Context, q AggQuery, opts ExecOptions) ([]float64, error) {
	return s.ExecRange(ctx, q, opts, 0, opts.Iterations)
}

// ExecRange runs only the iteration window [lo, hi) of the
// opts.Iterations-iteration run Exec would perform, returning hi-lo
// samples. Windows are the sharding primitive: backends that partition
// [0, Iterations) into disjoint contiguous windows and concatenate
// their outputs in index order reproduce the single-node Exec
// bit-identically, because iteration i draws from substream i of the
// same seed regardless of which shard runs it. On bundles the
// realization covers all Iterations (bundles are per-tuple, not
// per-iteration) and the session cache amortizes it across a shard's
// queries; the aggregation kernel runs over the window alone and
// returns it alone, so a shard's estimation work is tuples × (hi − lo)
// and its output hi − lo values.
func (s *Session) ExecRange(ctx context.Context, q AggQuery, opts ExecOptions, lo, hi int) ([]float64, error) {
	spec, colIdx, err := s.db.checkQuery(q, opts, lo, hi, false)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "mcdb.exec")
	span.SetAttr("table", q.Table)
	span.SetInt("iterations", int64(opts.Iterations))
	span.SetInt("lo", int64(lo))
	span.SetInt("hi", int64(hi))
	defer span.End()
	if len(spec.UncertainCols) == 0 {
		in, err := s.instancer(ctx)
		if err != nil {
			return nil, err
		}
		return perInstance(ctx, opts, lo, hi, in.instantiate, instanceAgg(q, colIdx))
	}
	bt, err := s.bundleFor(ctx, opts, q.Table)
	if err != nil {
		return nil, err
	}
	win := iterRun{lo, hi}
	return bt.estimate(q, win, []iterRun{win})
}

// checkWindow validates the run shape every entry point shares: a
// positive iteration count and a window inside [0, Iterations).
func checkWindow(opts ExecOptions, lo, hi int) error {
	if opts.Iterations <= 0 {
		return fmt.Errorf("%w: iters=%d", ErrBadQuery, opts.Iterations)
	}
	if lo < 0 || hi > opts.Iterations || lo > hi {
		return fmt.Errorf("%w: window [%d, %d) outside [0, %d)", ErrBadQuery, lo, hi, opts.Iterations)
	}
	return nil
}

// checkQuery is the preamble of every AggQuery entry point: run shape,
// aggregate, spec, a column the spec's executor can aggregate — an
// uncertain one on bundles, a numeric one per instance — and UncWhere
// conjuncts the kernel can run. bundled marks an entry point that
// exists only on bundles (delta, lineage). It returns the spec and the
// column's schema index.
func (db *DB) checkQuery(q AggQuery, opts ExecOptions, lo, hi int, bundled bool) (*TableSpec, int, error) {
	if err := checkWindow(opts, lo, hi); err != nil {
		return nil, 0, err
	}
	if q.Fn != engine.AggCount && q.Fn != engine.AggSum && q.Fn != engine.AggAvg {
		return nil, 0, fmt.Errorf("%w: aggregate %v not supported", ErrBadQuery, q.Fn)
	}
	spec, err := db.Spec(q.Table)
	if err != nil {
		return nil, 0, err
	}
	idx, err := spec.Schema.ColIndex(q.Col)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	if len(spec.UncertainCols) == 0 {
		if bundled {
			return nil, 0, fmt.Errorf("%w: %q declares no UncertainCols, so it has no bundles", ErrBadQuery, q.Table)
		}
		if t := spec.Schema[idx].Type; t != engine.TypeInt && t != engine.TypeFloat {
			return nil, 0, fmt.Errorf("%w: column %q of %q is %s, aggregates require numeric", ErrBadQuery, q.Col, q.Table, t)
		}
	} else if _, ok := spec.UncPos(idx); !ok {
		return nil, 0, fmt.Errorf("%w: column %q is not uncertain in %q", ErrBadQuery, q.Col, q.Table)
	}
	for _, c := range q.UncWhere {
		if c.Pos < 0 || c.Pos >= len(spec.UncertainCols) {
			return nil, 0, fmt.Errorf("%w: UncWhere position %d outside the %d uncertain columns of %q",
				ErrBadQuery, c.Pos, len(spec.UncertainCols), q.Table)
		}
		if !validUncOp(c.Op) {
			return nil, 0, fmt.Errorf("%w: UncWhere operator %q (want eq, ne, lt, le, gt or ge)", ErrBadQuery, c.Op)
		}
	}
	return spec, idx, nil
}

// instanceAgg is q as a scalar over one instantiated database — how a
// spec with no UncertainCols is aggregated. colIdx is q.Col's schema
// index.
func instanceAgg(q AggQuery, colIdx int) Query {
	return func(inst *engine.Database) (float64, error) {
		tbl, err := inst.Get(q.Table)
		if err != nil {
			return 0, err
		}
		var sum, count float64
		for _, row := range tbl.Rows {
			if q.WhereDet != nil && !q.WhereDet(row) {
				continue
			}
			if q.WhereUnc != nil && !q.WhereUnc(row, nil) {
				continue
			}
			sum += row[colIdx].AsFloat()
			count++
		}
		switch {
		case q.Fn == engine.AggCount:
			return count, nil
		case q.Fn == engine.AggAvg && count > 0:
			return sum / count, nil
		}
		// SUM — or AVG of an empty selection, whose untouched zero sum is
		// the convention's 0 (see Exec).
		return sum, nil
	}
}

// bundleFor returns the named table of the bundle realization for one
// (iterations, seed) pair, realizing every table on a cache miss.
func (s *Session) bundleFor(ctx context.Context, opts ExecOptions, table string) (*BundleTable, error) {
	key := bundleKey{iters: opts.Iterations, seed: opts.Seed}
	reg := parallel.StatsFrom(ctx).Registry()
	bundles, ok := s.bundles.Get(key)
	if ok {
		reg.Counter(MetricRealizeCacheHits).Add(1)
	} else {
		reg.Counter(MetricRealizeCacheMisses).Add(1)
		in, err := s.instancer(ctx)
		if err != nil {
			return nil, err
		}
		fresh, err := in.bundled(ctx, opts.Iterations, opts.Seed, opts.Workers)
		if err != nil {
			return nil, err
		}
		// A racing realization of the same key produced identical bundles
		// (same seed, deterministic runtime), so either copy may win.
		var evicted int
		bundles, _, evicted = s.bundles.GetOrAdd(key, fresh)
		if evicted > 0 {
			reg.Counter(MetricRealizeCacheEvictions).Add(int64(evicted))
		}
	}
	bt, ok := bundles[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSpec, table)
	}
	return bt, nil
}

// --- SQL over Monte Carlo instantiations ---
//
// ExecSQL runs an arbitrary scalar SELECT (joins, WHERE, GROUP BY —
// anything the engine's SQL dialect supports) for every Monte Carlo
// iteration, where AggQuery is limited to one table and one aggregate.
// The statement is prepared, and its executor picked from the lowered
// statement and the specs (see engine.Prepared.Defer for the
// conditions), once per Session:
//
//   - plan once, when the statement reads exactly one stochastic table,
//     once, whose UncertainCols are float columns and not join keys. Its
//     first run realizes the window's first iteration in full and
//     executes the statement over it, binding it for the session; every
//     later iteration draws only that table's uncertain columns — every
//     spec's VG still runs for every tuple on the iteration's substream,
//     so the draws are the per-instance ones — and re-evaluates what
//     names them over the finished join.
//   - per instance, otherwise: a database is instantiated per iteration
//     and the statement run against it; the engine's planner picks a
//     join order on the first iteration and the Prepared choice cache
//     replays it on the rest.
//
// Both return the bits DB.MonteCarlo returns for Prepared.Scalar.
// MetricSQLPlanOnce / MetricSQLPerInstance and the mcdb.sql span's
// executor attribute say which one answered.

// statement is one entry of the session's prepared-statement cache: the
// parsed statement and how the session runs it. mu serializes the
// binding, so concurrent first runs bind once; the fields below it are
// written under mu, once each, and read-only from then on.
type statement struct {
	p *engine.Prepared

	mu      sync.Mutex
	planned bool             // d and read are set
	d       *engine.Deferred // nil: the statement runs per instance
	read    int              // index of the spec d defers
	ran     bool             // d has run over first
	first   []engine.Row     // the realization of spec read d ran over
}

// plan picks the statement's executor over in's database once, returning
// the Deferred that runs it plan-once, or nil when it runs per instance.
// It reads no row and draws nothing; an error is the statement's own
// and is not kept.
func (st *statement) plan(in *instancer) (*engine.Deferred, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.planned {
		d, read, err := in.deferred(st.p)
		if err != nil {
			return nil, err
		}
		st.planned, st.d, st.read = true, d, read
	}
	return st.d, nil
}

// bind runs the plan-once statement's join region unless an earlier
// call has: over iteration lo of the run opts describes, realized in
// full, storing Run's answer for it in out[0]. It returns the rows later
// draws are checked against and how many leading iterations of the
// window it answered (0 or 1). A failed or cancelled bind leaves the
// statement to the next call.
func (st *statement) bind(ctx context.Context, in *instancer, opts ExecOptions, lo int, out []float64) ([]engine.Row, int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ran {
		return st.first, 0, nil
	}
	tables, err := in.realize(ctx, rng.New(opts.Seed).SplitN(lo + 1)[lo])
	if err != nil {
		return nil, 0, err
	}
	first := tables[st.read].Rows
	st.d.Table().Rows = first
	if out[0], err = st.d.Run(); err != nil {
		return nil, 0, err
	}
	st.ran, st.first = true, first
	return first, 1, nil
}

// statement returns sql's cache entry, preparing it on a miss.
// Statements evicted past DefaultPreparedCacheCap are simply
// re-prepared, and re-bound, on next use.
func (s *Session) statement(sql string) (*statement, error) {
	if st, ok := s.prepared.Get(sql); ok {
		return st, nil
	}
	p, err := engine.Prepare(sql)
	if err != nil {
		return nil, err
	}
	// Two goroutines racing to prepare the same text agree on one
	// winner, so each statement keeps a single join-order cache and a
	// single binding.
	actual, _, _ := s.prepared.GetOrAdd(sql, &statement{p: p})
	return actual, nil
}

// Prepared parses sql once and caches it on the session's bounded LRU.
// Repeated calls with the same text return the same *engine.Prepared,
// sharing its join-order cache; statements evicted past
// DefaultPreparedCacheCap are simply re-prepared on next use.
func (s *Session) Prepared(sql string) (*engine.Prepared, error) {
	st, err := s.statement(sql)
	if err != nil {
		return nil, err
	}
	return st.p, nil
}

// ExecSQL runs a scalar SELECT for opts.Iterations Monte Carlo
// iterations — each over that iteration's realization of the database —
// and returns the per-iteration samples. Like Exec, results for a
// given (iterations, seed) are bit-identical at any worker count.
func (s *Session) ExecSQL(ctx context.Context, sql string, opts ExecOptions) ([]float64, error) {
	return s.ExecSQLRange(ctx, sql, opts, 0, opts.Iterations)
}

// ExecSQLRange runs only the iteration window [lo, hi) of the
// opts.Iterations-iteration run ExecSQL would perform, returning hi-lo
// samples — the SQL analogue of ExecRange, with the same
// shard-and-concatenate bit-identity guarantee.
func (s *Session) ExecSQLRange(ctx context.Context, sql string, opts ExecOptions, lo, hi int) ([]float64, error) {
	if err := checkWindow(opts, lo, hi); err != nil {
		return nil, err
	}
	st, err := s.statement(sql)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "mcdb.sql")
	span.SetAttr("sql", sql)
	span.SetInt("iterations", int64(opts.Iterations))
	span.SetInt("lo", int64(lo))
	span.SetInt("hi", int64(hi))
	defer span.End()
	in, err := s.instancer(ctx)
	if err != nil {
		return nil, err
	}
	d, err := st.plan(in)
	if err != nil {
		return nil, err
	}
	reg := parallel.StatsFrom(ctx).Registry()
	if d == nil {
		span.SetAttr("executor", "per_instance")
		reg.Counter(MetricSQLPerInstance).Add(1)
		return perInstance(ctx, opts, lo, hi, in.instantiate, st.p.Scalar)
	}
	span.SetAttr("executor", "plan_once")
	reg.Counter(MetricSQLPlanOnce).Add(1)
	return st.planOnce(ctx, in, opts, lo, hi)
}

// ExplainSQL renders the plan ExecSQL would run, in both text and JSON
// form. Plans depend on table statistics, so the statement is
// explained against a deterministic seed-0 instantiation — the same
// row counts (and thus the same plan) every instantiation gets. The
// instantiation is built at most once per session (under ctx, so a
// server handler can abort a slow build), from the session's resolved
// rows, and reused by every later EXPLAIN, whatever its statement.
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
	in, err := s.instancer(ctx)
	if err != nil {
		return nil, err
	}
	inst, err := in.instantiate(ctx, rng.New(0))
	if err != nil {
		return nil, err
	}
	s.explainInst = inst
	return inst, nil
}
