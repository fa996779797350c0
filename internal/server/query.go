package server

// The query surface: JSON request/response types and the two
// execution entry points (structured aggregate queries and SQL), both
// answering through the bounded result cache. Responses carry the full
// distribution summary plus one page of raw samples; the cache stores
// the complete sample vector so later pages of a cached query never
// re-execute — with its summary and, from the first hit on, its JSON
// text, so a hit neither sorts nor formats a sample (DESIGN.md §10).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"modeldata/internal/engine"
	"modeldata/internal/mcdb"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// Predicate is one conjunct of a query's WHERE clause. Numeric
// comparisons set Value; string equality tests set Str. Predicates on
// a spec's uncertain columns are evaluated against each Monte Carlo
// realization; the rest filter deterministic attributes once.
type Predicate struct {
	Col   string  `json:"col"`
	Op    string  `json:"op"` // eq, ne, lt, le, gt, ge (or =, !=, <, <=, >, >=)
	Value float64 `json:"value,omitempty"`
	Str   *string `json:"str,omitempty"`
}

// QueryRequest asks for one aggregate over a stochastic table:
// SELECT fn(col) FROM table WHERE where..., run for iterations Monte
// Carlo iterations under the tenant's seed namespace.
type QueryRequest struct {
	Tenant     string      `json:"tenant"`
	Table      string      `json:"table"`
	Col        string      `json:"col"`
	Fn         string      `json:"fn"` // count, sum, avg
	Where      []Predicate `json:"where,omitempty"`
	Iterations int         `json:"iterations"`
	Seed       uint64      `json:"seed"`
	// Workers is the per-query worker budget (clamped to the server's
	// MaxWorkers and divided across shards); 0 asks for the maximum.
	Workers int `json:"workers,omitempty"`
	// Offset/Limit page through the sample vector; Limit 0 means one
	// full page (the server's PageSize).
	Offset int `json:"offset,omitempty"`
	Limit  int `json:"limit,omitempty"`
	// Lineage asks for per-iteration why-provenance: for every Monte
	// Carlo iteration, the indexes of the stochastic-table tuples that
	// contributed to the sample. Needs a table whose spec declares
	// uncertain columns; cannot be combined with WhatIf.
	Lineage bool `json:"lineage,omitempty"`
	// WhatIf, when set, answers the query against a hypothetical
	// database instead of the base one, via delta re-realization
	// (mcdb.Session.ExecDelta): only the affected tuples and dirty
	// iterations are recomputed.
	WhatIf *WhatIf `json:"whatif,omitempty"`
}

// WhatIf is the declarative form of a value-transform delta: scale and
// shift one uncertain column (new = old*scale + shift) for the tuples
// the deterministic Where predicates select. Scale 0 means 1, so the
// zero value of either knob is a no-op on that axis.
type WhatIf struct {
	// Table names the stochastic table to modify; empty means the
	// query's table.
	Table string `json:"table,omitempty"`
	// Col is the uncertain column transformed.
	Col   string  `json:"col"`
	Scale float64 `json:"scale,omitempty"`
	Shift float64 `json:"shift,omitempty"`
	// Where selects the affected tuples by deterministic attributes;
	// empty affects every tuple.
	Where []Predicate `json:"where,omitempty"`
}

// SQLRequest runs a scalar SELECT once per Monte Carlo instantiation,
// or (with Explain) returns its cost-based plan without executing.
type SQLRequest struct {
	Tenant     string `json:"tenant"`
	SQL        string `json:"sql"`
	Explain    bool   `json:"explain,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Offset     int    `json:"offset,omitempty"`
	Limit      int    `json:"limit,omitempty"`
}

// Summary is the distribution summary of the full sample vector
// (mcdb.Estimate flattened — its quantile map has float keys, which
// encoding/json cannot marshal).
type Summary struct {
	N        int     `json:"n"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	CI95     float64 `json:"ci95"`
	Median   float64 `json:"median"`
}

// QueryResponse answers a QueryRequest. EffectiveSeed is the namespaced
// seed actually executed: a plain mcdb.Session run with it reproduces
// Samples exactly, shards or not.
type QueryResponse struct {
	Tenant        string  `json:"tenant"`
	EffectiveSeed uint64  `json:"effective_seed"`
	Iterations    int     `json:"iterations"`
	Shards        int     `json:"shards"`
	Cached        bool    `json:"cached"`
	Summary       Summary `json:"summary"`
	Offset        int     `json:"offset"`
	// NextOffset is the offset of the next page, or -1 when Samples
	// ends the vector.
	NextOffset int       `json:"next_offset"`
	Samples    []float64 `json:"samples"`
	// Lineage, present only when the request set Lineage, pages in step
	// with Samples: Lineage[i] lists the tuple indexes of the query's
	// table that contributed to Samples[i]'s iteration.
	Lineage [][]int `json:"lineage,omitempty"`

	// sampleText, when the result cache supplied it, is the JSON text of
	// Samples without the brackets; the encoder copies it instead of
	// formatting Samples. It aliases the cache entry and is read-only.
	sampleText []byte
}

// SQLResponse answers an SQLRequest. For Explain requests only the
// plan fields are set.
type SQLResponse struct {
	QueryResponse
	Plan     string          `json:"plan,omitempty"`
	PlanJSON json.RawMessage `json:"plan_json,omitempty"`
}

// Query executes a structured aggregate query for one tenant.
func (s *Server) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	fn, err := parseAgg(req.Fn)
	if err != nil {
		return nil, err
	}
	if err := s.checkRun(req.Iterations, req.Offset); err != nil {
		return nil, err
	}
	t, release, err := s.admit(req.Tenant)
	if err != nil {
		return nil, err
	}
	defer release()
	ctx = s.requestContext(ctx)
	ctx, span := obs.Start(ctx, "server.query")
	span.SetAttr("tenant", req.Tenant)
	span.SetAttr("table", req.Table)
	defer span.End()

	spec, err := t.db.Spec(req.Table)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	preds, err := compileWhere(spec, req.Where)
	if err != nil {
		return nil, err
	}
	var delta mcdb.Delta
	var whatifCanon string
	if req.WhatIf != nil {
		if req.Lineage {
			return nil, badRequestf("lineage cannot be combined with whatif (lineage reflects the base realization)")
		}
		delta, whatifCanon, err = compileWhatIf(t.db, req.Table, req.WhatIf)
		if err != nil {
			return nil, err
		}
	}
	q := mcdb.AggQuery{Table: req.Table, Col: req.Col, Fn: fn,
		WhereDet: preds.det, UncWhere: preds.unc}
	key := resultKey{tenant: t.gen, kind: "agg",
		text: canonicalAgg(req, preds), seed: req.Seed, iters: req.Iterations,
		lineage: req.Lineage, whatif: whatifCanon}
	entry, cached, err := s.results(key, func() ([]float64, [][]int, error) {
		opts := mcdb.ExecOptions{
			Iterations: req.Iterations,
			Seed:       s.EffectiveSeed(req.Tenant, req.Seed),
		}
		vec, err := s.sharded(ctx, t, req.Iterations, s.workerBudget(req.Workers),
			func(ctx context.Context, sess *mcdb.Session, workers, lo, hi int) ([]float64, error) {
				o := opts
				o.Workers = workers
				if req.WhatIf != nil {
					return sess.ExecDeltaRange(ctx, q, o, delta, lo, hi)
				}
				return sess.ExecRange(ctx, q, o, lo, hi)
			})
		if err != nil || !req.Lineage {
			return vec, nil, err
		}
		// Lineage comes from shard 0's session over the full iteration
		// range; its bundle cache already holds this realization when
		// the sample run above touched shard 0.
		o := opts
		o.Workers = s.workerBudget(req.Workers)
		rows, err := t.shards[0].ExecLineage(ctx, q, o)
		if err != nil {
			return nil, nil, err
		}
		return vec, rows, nil
	})
	if err != nil {
		// mcdb's preamble runs inside the shard run; what it rejects —
		// a bad col, lineage on an un-bundled table — is the client's fault.
		if errors.Is(err, mcdb.ErrBadQuery) || errors.Is(err, mcdb.ErrNoSpec) {
			err = badRequestf("%v", err)
		}
		return nil, err
	}
	s.reg.Counter(MetricQueries).Inc()
	return s.respond(req.Tenant, req.Seed, req.Iterations, req.Offset, req.Limit, entry, cached), nil
}

// compileWhatIf lowers the declarative what-if onto an mcdb.Delta: a
// deterministic tuple selector plus an in-place scale-and-shift of one
// uncertain column. The returned canonical text joins the cache key so
// a what-if answer can never shadow (or be shadowed by) the base
// query's, and distinct transforms never share an entry.
func compileWhatIf(db *mcdb.DB, queryTable string, w *WhatIf) (mcdb.Delta, string, error) {
	table := w.Table
	if table == "" {
		table = queryTable
	}
	spec, err := db.Spec(table)
	if err != nil {
		return mcdb.Delta{}, "", badRequestf("whatif table: %v", err)
	}
	idx, err := spec.Schema.ColIndex(w.Col)
	if err != nil {
		return mcdb.Delta{}, "", badRequestf("whatif column: %v", err)
	}
	k, ok := spec.UncPos(idx)
	if !ok {
		return mcdb.Delta{}, "", badRequestf("whatif column %q is not an uncertain column of %q", w.Col, table)
	}
	preds, err := compileWhere(spec, w.Where)
	if err != nil {
		return mcdb.Delta{}, "", err
	}
	if len(preds.unc) > 0 {
		return mcdb.Delta{}, "", badRequestf("whatif predicates must be deterministic (uncertain columns select per-iteration, not per-tuple)")
	}
	scale, shift := w.Scale, w.Shift
	if scale == 0 { // the JSON zero value means "unset", mapped to the identity scale
		scale = 1
	}
	d := mcdb.Delta{
		Table:  table,
		Where:  preds.det,
		MapUnc: func(det engine.Row, unc []float64) { unc[k] = unc[k]*scale + shift },
	}
	var b strings.Builder
	fmt.Fprintf(&b, "whatif %s.%s*%s+%s", table, w.Col,
		strconv.FormatFloat(scale, 'g', -1, 64), strconv.FormatFloat(shift, 'g', -1, 64))
	for _, c := range preds.canon {
		b.WriteByte('|')
		b.WriteString(c)
	}
	return d, b.String(), nil
}

// SQL executes (or explains) a scalar SELECT for one tenant.
func (s *Server) SQL(ctx context.Context, req SQLRequest) (*SQLResponse, error) {
	if strings.TrimSpace(req.SQL) == "" {
		return nil, badRequestf("sql is required")
	}
	if !req.Explain {
		if err := s.checkRun(req.Iterations, req.Offset); err != nil {
			return nil, err
		}
	}
	t, release, err := s.admit(req.Tenant)
	if err != nil {
		return nil, err
	}
	defer release()
	ctx = s.requestContext(ctx)
	ctx, span := obs.Start(ctx, "server.sql")
	span.SetAttr("tenant", req.Tenant)
	span.SetAttr("sql", req.SQL)
	defer span.End()

	if req.Explain {
		// Plans are statistics-dependent but instantiation-stable, so
		// shard 0's session (with its cached seed-0 instantiation)
		// speaks for all shards.
		text, data, err := t.shards[0].ExplainSQL(ctx, req.SQL)
		if err != nil {
			return nil, sqlError(ctx, err)
		}
		s.reg.Counter(MetricExplains).Inc()
		return &SQLResponse{
			QueryResponse: QueryResponse{Tenant: req.Tenant, Shards: len(t.shards), NextOffset: -1},
			Plan:          text,
			PlanJSON:      json.RawMessage(data),
		}, nil
	}

	key := resultKey{tenant: t.gen, kind: "sql", text: req.SQL,
		seed: req.Seed, iters: req.Iterations}
	entry, cached, err := s.results(key, func() ([]float64, [][]int, error) {
		seed := s.EffectiveSeed(req.Tenant, req.Seed)
		vec, err := s.sharded(ctx, t, req.Iterations, s.workerBudget(req.Workers),
			func(ctx context.Context, sess *mcdb.Session, workers, lo, hi int) ([]float64, error) {
				o := mcdb.ExecOptions{Iterations: req.Iterations, Seed: seed, Workers: workers}
				return sess.ExecSQLRange(ctx, req.SQL, o, lo, hi)
			})
		return vec, nil, err
	})
	if err != nil {
		return nil, sqlError(ctx, err)
	}
	s.reg.Counter(MetricSQL).Inc()
	return &SQLResponse{QueryResponse: *s.respond(req.Tenant, req.Seed, req.Iterations, req.Offset, req.Limit, entry, cached)}, nil
}

// sqlError maps an error from explaining or running a statement. A
// parse error or an unknown table or column surfaces there (the
// statement is prepared and resolved inside the call); it is the
// client's fault. A tenant spec that fails to realize (mcdb.ErrBadSpec)
// is the server's, and a cancelled request is no one's: both pass
// through.
func sqlError(ctx context.Context, err error) error {
	if _, ok := err.(*StatusError); !ok && ctx.Err() == nil && !errors.Is(err, mcdb.ErrBadSpec) {
		return badRequestf("%v", err)
	}
	return err
}

// results answers key from the cache or computes, summarizes, stores,
// and counts. Two racing misses on the same key both compute, but
// determinism makes their vectors identical, so either store is
// correct. An answer JSON cannot carry (summarize) is an error and is
// not stored.
func (s *Server) results(key resultKey, compute func() ([]float64, [][]int, error)) (cachedResult, bool, error) {
	if e, ok := s.cacheGet(key); ok {
		s.reg.Counter(MetricCacheHits).Inc()
		if e.text == nil {
			e = s.retainText(key, e)
		}
		return e, true, nil
	}
	s.reg.Counter(MetricCacheMisses).Inc()
	e := cachedResult{}
	var err error
	if e.samples, e.lineage, err = compute(); err != nil {
		return cachedResult{}, false, err
	}
	if e.summary, err = summarize(e.samples); err != nil {
		return cachedResult{}, false, err
	}
	return s.cacheStore(key, e), false, nil
}

// summarize computes the response summary of a full sample vector, once
// per cache entry. A non-finite sample or summary field (a what-if
// scale that overflows float64, a variance past MaxFloat64) has no JSON
// spelling: the error names it, before anything is cached or written.
func summarize(samples []float64) (Summary, error) {
	for i, v := range samples {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return Summary{}, unrepresentable(fmt.Sprintf("the sample of iteration %d", i), v)
		}
	}
	est, err := mcdb.Summarize(samples)
	if err != nil {
		return Summary{}, err
	}
	sum := Summary{N: est.N, Mean: est.Mean, Variance: est.Variance,
		CI95: est.CI95, Median: est.Quantiles[0.5]}
	for _, f := range sum.floats() {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return Summary{}, unrepresentable("the summary's "+f.name, f.v)
		}
	}
	return sum, nil
}

// resultBytes is the accounted payload size of one cached entry, the
// amount charged to Config.CacheMaxBytes: the sample vector, any
// lineage rows (tuple indexes at word size, counted per iteration, an
// upper bound when iterations share an interned set), and — once a first hit has
// retained them — the samples' JSON text and its per-sample end
// offsets. Slice headers and the summary are noise next to the payload
// and are not counted.
func resultBytes(e cachedResult) int64 {
	n := int64(len(e.samples))*8 + int64(len(e.text)) + int64(len(e.ends))*4
	for _, l := range e.lineage {
		n += int64(len(l)) * 8
	}
	return n
}

// cacheGet returns the cached entry for key.
func (s *Server) cacheGet(key resultKey) (cachedResult, bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return s.cache.Get(key)
}

// cacheStore inserts a computed entry, stamped with its accounted
// size, and returns it as stored. An entry larger than the whole byte
// budget is not cached at all (storing it would evict everything and
// then still break the bound).
func (s *Server) cacheStore(key resultKey, e cachedResult) cachedResult {
	e.bytes = resultBytes(e)
	if e.bytes > s.cfg.CacheMaxBytes {
		s.reg.Counter(MetricCacheEvictions).Inc()
		return e
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if old, ok := s.cache.Remove(key); ok { // replacement: retire old accounting
		s.cacheBytes -= old.bytes
	}
	s.evictForLocked(e.bytes, 1)
	// evictForLocked left a free slot, so this Add never evicts internally
	// (which would skew byte accounting).
	s.cache.Add(key, e)
	s.cacheBytes += e.bytes
	s.reg.Gauge(MetricCacheBytes).Set(s.cacheBytes)
	return e
}

// evictForLocked drops least-recently-used entries until slots more entries
// and bytes more payload fit both budgets. Caller holds cacheMu.
func (s *Server) evictForLocked(bytes int64, slots int) {
	evicted := 0
	for s.cache.Len()+slots > s.cache.Cap() || s.cacheBytes+bytes > s.cfg.CacheMaxBytes {
		_, old, ok := s.cache.RemoveOldest()
		if !ok {
			break
		}
		s.cacheBytes -= old.bytes
		evicted++
	}
	if evicted > 0 {
		s.reg.Counter(MetricCacheEvictions).Add(int64(evicted))
	}
}

// retainText runs on the first hit of an entry: it encodes the whole
// sample vector once and keeps the text on the entry, so every later
// hit, on any page, copies a sub-slice instead of formatting floats.
// Doing it here and not at the miss means a vector that is never asked
// for twice is never encoded in full nor held twice. The text is
// charged to the byte budget like the vector, evicting older entries;
// an entry whose text could not fit beside it even in an otherwise
// empty cache (judged on maxSampleText per sample, so the decision
// precedes the work) keeps none and its hits format their page. The
// returned entry carries the text either way.
func (s *Server) retainText(key resultKey, e cachedResult) cachedResult {
	n := int64(len(e.samples))
	if worst := n * maxSampleText; worst > math.MaxUint32 || e.bytes+worst+4*n > s.cfg.CacheMaxBytes {
		return e
	}
	// Encode into a pooled buffer and keep an exact-size copy: what the
	// entry holds is what it is charged for, not append's spare capacity.
	ends := make([]uint32, n)
	buf := bodies.Get().(*[]byte)
	text, err := appendSamples((*buf)[:0], e.samples, 0, ends)
	if err == nil {
		e.text, e.ends = bytes.Clone(text), ends
	}
	putBody(buf, text)
	if err != nil {
		return e // the response encoder reports it
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	cur, ok := s.cache.Get(key)
	if !ok || cur.text != nil || len(cur.samples) != len(e.samples) || (n > 0 && &cur.samples[0] != &e.samples[0]) {
		return e // evicted or replaced since the lookup, or a racing first hit won
	}
	grow := resultBytes(e) - e.bytes
	s.evictForLocked(grow, 0) // stops short of key: it is the most recently used, and fits
	e.bytes += grow
	s.cache.Add(key, e)
	s.cacheBytes += grow
	s.reg.Gauge(MetricCacheBytes).Set(s.cacheBytes)
	return e
}

// respond assembles the common response from a cache entry: its
// summary, and the requested page of samples, sample text and lineage.
func (s *Server) respond(tenant string, seed uint64, iters, offset, limit int, e cachedResult, cached bool) *QueryResponse {
	page, next := s.paginate(e.samples, offset, limit)
	end := offset + len(page)
	resp := &QueryResponse{
		Tenant:        tenant,
		EffectiveSeed: s.EffectiveSeed(tenant, seed),
		Iterations:    iters,
		Shards:        s.cfg.Shards,
		Cached:        cached,
		Summary:       e.summary,
		Offset:        offset,
		NextOffset:    next,
		Samples:       page,
	}
	if e.text != nil && len(page) > 0 {
		start := 0
		if offset > 0 {
			start = int(e.ends[offset-1]) + 1 // past the separator
		}
		resp.sampleText = e.text[start:e.ends[end-1]]
	}
	if e.lineage != nil {
		resp.Lineage = e.lineage[offset:end:end]
	}
	return resp
}

// paginate selects [offset, offset+limit) of the vector, clamping
// limit to the server page size. next is -1 when the page exhausts the
// vector. offset is inside the vector: checkRun held it to
// [0, iterations] and a run's vector has one sample per iteration.
func (s *Server) paginate(samples []float64, offset, limit int) (page []float64, next int) {
	if limit <= 0 || limit > s.cfg.PageSize {
		limit = s.cfg.PageSize
	}
	end := offset + limit
	if end > len(samples) {
		end = len(samples)
	}
	next = end
	if end == len(samples) {
		next = -1
	}
	return samples[offset:end:end], next
}

// requestContext attaches the server-wide stats collector (so session
// metrics land in the server registry) and, when tracing is on, the
// current tracer.
func (s *Server) requestContext(ctx context.Context) context.Context {
	ctx = parallel.WithStats(ctx, s.stats)
	if tr := s.tracer.Load(); tr != nil {
		ctx = obs.WithTracer(ctx, tr)
	}
	return ctx
}

// workerBudget clamps a requested worker count to [1, MaxWorkers],
// with 0 (unset) asking for the maximum.
func (s *Server) workerBudget(req int) int {
	if req <= 0 || req > s.cfg.MaxWorkers {
		return s.cfg.MaxWorkers
	}
	return req
}

// checkRun refuses a run shape no execution could answer, before the
// request is admitted: an iteration count outside (0, MaxIterations],
// or a page offset outside the sample vector those iterations produce.
func (s *Server) checkRun(iters, offset int) error {
	if iters <= 0 {
		return badRequestf("iterations must be positive, got %d", iters)
	}
	if iters > s.cfg.MaxIterations {
		return badRequestf("iterations %d exceeds server limit %d", iters, s.cfg.MaxIterations)
	}
	if offset < 0 || offset > iters {
		return badRequestf("offset %d outside [0, %d]", offset, iters)
	}
	return nil
}

func parseAgg(fn string) (engine.AggFunc, error) {
	switch strings.ToLower(fn) {
	case "count":
		return engine.AggCount, nil
	case "sum":
		return engine.AggSum, nil
	case "avg":
		return engine.AggAvg, nil
	}
	return 0, badRequestf("unknown aggregate %q (want count, sum, or avg)", fn)
}

// compiled holds a WHERE clause lowered onto mcdb.AggQuery's
// deterministic closure and its uncertain conjuncts, plus the canonical
// text of each conjunct for the cache key.
type compiled struct {
	det   func(engine.Row) bool
	unc   []mcdb.UncCmp
	canon []string
}

// compileWhere routes each predicate by whether its column is one the
// spec's VG function produces. Deterministic comparisons become one
// closure over engine.Value's exact total order, so int columns compare
// correctly against float literals; mcdb tests it once per tuple. An
// uncertain column is a float64 per tuple-iteration compared with a
// float64 literal, so its predicate becomes an mcdb.UncCmp — data, not
// a closure — which mcdb's kernel evaluates with one typed loop per
// conjunct over a run of iterations, ordering NaN as compare's Value
// form does on two engine.Float values.
func compileWhere(spec *mcdb.TableSpec, preds []Predicate) (compiled, error) {
	var out compiled
	var det []func(engine.Row) bool
	for _, p := range preds {
		idx, err := spec.Schema.ColIndex(p.Col)
		if err != nil {
			return out, badRequestf("predicate column: %v", err)
		}
		op, cmp, err := compare(p.Op)
		if err != nil {
			return out, err
		}
		if k, ok := spec.UncPos(idx); ok {
			if p.Str != nil {
				return out, badRequestf("predicate on uncertain column %q must be numeric", p.Col)
			}
			out.unc = append(out.unc, mcdb.UncCmp{Pos: k, Op: op, Lit: p.Value})
			out.canon = append(out.canon, fmt.Sprintf("unc %s %s %s",
				p.Col, op, strconv.FormatFloat(p.Value, 'g', -1, 64)))
			continue
		}
		lit := engine.Float(p.Value)
		canonLit := strconv.FormatFloat(p.Value, 'g', -1, 64)
		if p.Str != nil {
			lit = engine.Str(*p.Str)
			canonLit = strconv.Quote(*p.Str)
		}
		i := idx
		det = append(det, func(r engine.Row) bool { return cmp(r[i], lit) })
		out.canon = append(out.canon, fmt.Sprintf("det %s %s %s", p.Col, op, canonLit))
	}
	if len(det) > 0 {
		out.det = func(r engine.Row) bool {
			for _, f := range det {
				if !f(r) {
					return false
				}
			}
			return true
		}
	}
	return out, nil
}

// compare maps an operator spelling to its canonical name, which is
// also the mcdb.UncCmp operator, and its comparison over engine.Value:
// Equal/Less compose into all six operators, keeping comparison
// semantics in one audited place.
func compare(op string) (string, func(a, b engine.Value) bool, error) {
	switch op {
	case "eq", "=", "==":
		return "eq", func(a, b engine.Value) bool { return a.Equal(b) }, nil
	case "ne", "!=", "<>":
		return "ne", func(a, b engine.Value) bool { return !a.Equal(b) }, nil
	case "lt", "<":
		return "lt", func(a, b engine.Value) bool { return a.Less(b) }, nil
	case "le", "<=":
		return "le", func(a, b engine.Value) bool { return !b.Less(a) }, nil
	case "gt", ">":
		return "gt", func(a, b engine.Value) bool { return b.Less(a) }, nil
	case "ge", ">=":
		return "ge", func(a, b engine.Value) bool { return !a.Less(b) }, nil
	}
	return "", nil, badRequestf("unknown operator %q", op)
}

// canonicalAgg renders the query in a normalized form for the cache
// key: aggregate and operator spellings are canonicalized so equivalent
// requests share an entry.
func canonicalAgg(req QueryRequest, preds compiled) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s", req.Table, req.Col, strings.ToLower(req.Fn))
	for _, c := range preds.canon {
		b.WriteByte('|')
		b.WriteString(c)
	}
	return b.String()
}
