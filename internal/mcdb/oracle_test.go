package mcdb

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// The mcdb oracle. MCDB's claim (§2.1) is that a plan run once over
// tuple bundles answers what re-running it over every instantiated
// database answers. One seed builds a world — base tables, two or three
// specs, requests over the one spec s they read — and every request is
// held to a reference that shares no code with the route it checks:
//
//   - per iteration: DB.MonteCarlo, with Prepared.Scalar for SQL and
//     with instanceRef's loop for an AggQuery over an s that declares no
//     UncertainCols;
//   - bundles: bundleRef, a plain loop per iteration over the tuples of
//     InstantiateBundled's tables, for aggregates, what-ifs and lineage.
//
// Each request runs at workers 1, 2 and 8, over windows — one past 0
// first, the whole run, an empty one, three cuts — in a fresh session
// and in a warm one that has served another seed, and every point must
// give its reference's bits, all NaN payloads one class (sameBits).

// oracleBase is a world's deterministic side: items (the FOR EACH table,
// n rows), nothing (items' schema, empty), dims keyed by items.grp with
// every key twice (fan-out 2) and keys on either side that match
// nothing, cats keyed by dims.label, and tiny, one row on items.tag that
// the cost-based planner joins first wherever it is written.
func oracleBase(n int) *engine.Database {
	base := engine.NewDatabase()
	schema := engine.Schema{{Name: "id", Type: engine.TypeInt}, {Name: "w", Type: engine.TypeFloat},
		{Name: "grp", Type: engine.TypeInt}, {Name: "tag", Type: engine.TypeString}}
	items := engine.MustNewTable("items", schema)
	for i := 0; i < n; i++ {
		items.MustInsert(engine.Int(int64(i)), engine.Float(8+float64(i%5)), engine.Int(int64(i%7)), engine.Str(fmt.Sprintf("t%d", i%4)))
	}
	base.Put(items)
	base.Put(engine.MustNewTable("nothing", schema))
	dims := engine.MustNewTable("dims", engine.Schema{{Name: "k", Type: engine.TypeInt},
		{Name: "label", Type: engine.TypeString}, {Name: "wt", Type: engine.TypeFloat}})
	for k := 0; k < 5; k++ { // items.grp 5 and 6 match nothing
		dims.MustInsert(engine.Int(int64(k)), engine.Str(fmt.Sprintf("l%d", k%3)), engine.Float(1+float64(k)/2))
		dims.MustInsert(engine.Int(int64(k)), engine.Str(fmt.Sprintf("l%d", (k+1)%3)), engine.Float(3-float64(k)/2))
	}
	dims.MustInsert(engine.Int(9), engine.Str("l0"), engine.Float(7)) // matches no item
	base.Put(dims)
	cats := engine.MustNewTable("cats", engine.Schema{{Name: "label", Type: engine.TypeString}, {Name: "zone", Type: engine.TypeInt}})
	for l := 0; l < 3; l++ {
		cats.MustInsert(engine.Str(fmt.Sprintf("l%d", l)), engine.Int(int64(l%2)))
	}
	base.Put(cats)
	tiny := engine.MustNewTable("tiny", engine.Schema{{Name: "tag", Type: engine.TypeString}, {Name: "note", Type: engine.TypeString}})
	tiny.MustInsert(engine.Str("t3"), engine.Str("the one"))
	base.Put(tiny)
	return base
}

// specialVG draws values a float column can hold but arithmetic treats
// specially — NaN, ±Inf, −0 — and integers.
var specialVG = drawEach(1, func(params engine.Row, r *rng.Stream, vals []float64) error {
	switch u := r.Float64(); {
	case u < 0.08:
		vals[0] = math.NaN()
	case u < 0.16:
		vals[0] = math.Inf(1)
	case u < 0.24:
		vals[0] = math.Inf(-1)
	case u < 0.4:
		vals[0] = math.Copysign(0, -1)
	case u < 0.6:
		vals[0] = float64(int64(u * 40))
	default:
		vals[0] = r.Normal(params[1].AsFloat(), 3)
	}
	return nil
})

// oracleShapes returns the shapes of s, fresh. The VG draws the columns
// named val (then u); every shape but the last has id, grp and tag too.
func oracleShapes() []*TableSpec {
	outerVal := engine.Schema{{Name: "id", Type: engine.TypeInt}, {Name: "w", Type: engine.TypeFloat},
		{Name: "grp", Type: engine.TypeInt}, {Name: "tag", Type: engine.TypeString}, {Name: "val", Type: engine.TypeFloat}}
	valU := drawEach(2, func(params engine.Row, r *rng.Stream, vals []float64) error {
		vals[0], vals[1] = r.Normal(params[0].AsFloat(), params[1].AsFloat()), 20*r.Float64()
		return nil
	})
	return []*TableSpec{
		// default OutputRow, Params
		{Schema: outerVal, ForEach: "items", Params: wStd, VG: NormalVG(), UncertainCols: []int{4}},
		// custom OutputRow, nil Params
		{ForEach: "items", UncertainCols: []int{2},
			Schema: engine.Schema{{Name: "grp", Type: engine.TypeInt}, {Name: "tag", Type: engine.TypeString},
				{Name: "val", Type: engine.TypeFloat}, {Name: "id", Type: engine.TypeInt}},
			VG: drawEach(1, func(params engine.Row, r *rng.Stream, vals []float64) error {
				vals[0] = r.Normal(params[1].AsFloat(), 2)
				return nil
			}),
			OutputRow: func(outer engine.Row, vg []engine.Value) engine.Row {
				return engine.Row{outer[2], outer[3], vg[0], outer[0]}
			}},
		// two uncertain columns
		{Schema: append(outerVal.Clone(), engine.Column{Name: "u", Type: engine.TypeFloat}), ForEach: "items", Params: wStd,
			VG: valU, UncertainCols: []int{4, 5}},
		// NaN, ±Inf, −0 and integers
		{Schema: outerVal, ForEach: "items", VG: specialVG, UncertainCols: []int{4}},
		// no FOR EACH
		{UncertainCols: []int{3}, Schema: engine.Schema{{Name: "id", Type: engine.TypeInt}, {Name: "grp", Type: engine.TypeInt},
			{Name: "tag", Type: engine.TypeString}, {Name: "val", Type: engine.TypeFloat}},
			VG: distVG(rng.NormalDist{Mu: 10, Sigma: 2}),
			OutputRow: func(_ engine.Row, vg []engine.Value) engine.Row {
				return engine.Row{engine.Int(0), engine.Int(3), engine.Str("t3"), vg[0]}
			}},
		// FOR EACH an empty table
		{Schema: outerVal, ForEach: "nothing", VG: specialVG, UncertainCols: []int{4}},
		// OutputRow returns vgOut
		{Schema: engine.Schema{{Name: "val", Type: engine.TypeFloat}, {Name: "u", Type: engine.TypeFloat}}, ForEach: "items",
			Params: wStd, VG: valU, UncertainCols: []int{0, 1},
			OutputRow: func(_ engine.Row, vgOut []engine.Value) engine.Row { return vgOut }},
	}
}

// The SQL walk: FROMs put s first, second and third among one to four
// scans (the last the order the planner rewrites), wheres and
// aggregates name s and dims, and the tails end in something other than
// one aggregate. perInstanceSQL run per instance whatever s declares: a
// self-join and an uncertain join key.
var (
	sqlFroms = []string{
		"s",
		"s JOIN dims ON s.grp = dims.k",
		"dims JOIN s ON dims.k = s.grp",
		"s JOIN dims ON s.grp = dims.k JOIN cats ON dims.label = cats.label",
		"cats JOIN dims ON cats.label = dims.label JOIN s ON s.grp = dims.k",
		"s JOIN dims ON s.grp = dims.k JOIN cats ON dims.label = cats.label JOIN tiny ON s.tag = tiny.tag",
	}
	sqlWheres = []string{"", "dims.wt > 1.5", "s.grp < 4", "s.val > 10", "dims.wt > 1.5 AND s.val > 10 AND s.grp < 6",
		"s.val > 12 OR dims.wt > 2.5", "s.val > 11 OR s.grp = 2", "NOT s.val > 10", "s.val BETWEEN 9 AND 12", "s.val > 1000000000"}
	sqlAggs  = []string{"SUM(s.val)", "AVG(s.val)", "COUNT(*)", "MIN(s.val)", "MAX(s.val)", "SUM(dims.wt)"}
	sqlTails = []string{
		"SELECT s.val FROM s JOIN tiny ON s.tag = tiny.tag WHERE s.id < 20 ORDER BY s.val DESC LIMIT 1",
		"SELECT DISTINCT dims.k FROM dims JOIN s ON dims.k = s.grp WHERE s.val > 11 AND dims.k = 2",
		"SELECT MAX(s.val) AS top FROM s JOIN dims ON s.grp = dims.k GROUP BY s.tag ORDER BY top LIMIT 1",
	}
	perInstanceSQL = []string{"SELECT SUM(s.val) FROM s JOIN s ON s.id = s.id", "SELECT COUNT(*) FROM s JOIN dims ON s.val = dims.wt"}
	sColumn        = regexp.MustCompile(`\bs\.(\w+)`)
)

// oracleReq is one request: sql, or the AggQuery q — as a what-if of d,
// or its lineage. evals counts the calls of q.WhereUnc when the
// predicate is a closure alone.
type oracleReq struct {
	sql      string
	planOnce bool // the executor sql must run on
	q        AggQuery
	d        *Delta
	lineage  bool
	evals    *atomic.Int64
}

type oracleWorld struct {
	id          uint64 // the seed that built it
	db          *DB
	iters       int
	seed        uint64
	perInstance bool   // s declares no UncertainCols
	other       string // a spec no request reads
	reqs        []oracleReq
	pick        *rng.Stream // draws the window cuts
}

// newWorld builds world seed. s's shape is seed's residue, and every
// other seed of each shape runs s per instance; the rest is drawn.
func newWorld(seed uint64) *oracleWorld {
	shapes := oracleShapes()
	r := rng.New(seed)
	w := &oracleWorld{id: seed, iters: 5 + r.Intn(8), seed: r.Uint64(), pick: r.Split(),
		perInstance: seed/uint64(len(shapes))%2 == 1, db: New(oracleBase(6 + r.Intn(30)))}
	s := shapes[seed%uint64(len(shapes))]
	s.Name = "s"
	unc := s.UncertainCols
	var cols []string // names of the columns the VG draws
	for _, c := range unc {
		cols = append(cols, s.Schema[c].Name)
	}
	if w.perInstance {
		s.UncertainCols = nil
	}
	// Specs no request reads, before s, after it or both; their draws
	// move each iteration's stream all the same.
	for _, name := range [][]string{{"before", "s"}, {"s", "after"}, {"before", "s", "after"}}[r.Intn(3)] {
		spec := s
		if name != "s" {
			spec, w.other = &TableSpec{Name: name, Schema: shapes[0].Schema, ForEach: "items", Params: wStd, VG: NormalVG()}, name
			if !w.perInstance {
				spec.UncertainCols = []int{4}
			}
		}
		if err := w.db.AddSpec(spec); err != nil {
			panic(err)
		}
	}

	grp, noGrp := s.Schema.ColIndex("grp")
	byGrp := func(pass func(g int64) bool) func(engine.Row) bool {
		if noGrp != nil {
			return nil
		}
		return func(det engine.Row) bool { return pass(det[grp].AsInt()) }
	}
	whereDet := func() func(engine.Row) bool {
		cut := int64(r.Intn(7))
		return byGrp(func(g int64) bool { return g < cut })
	}
	cmps := func() []UncCmp {
		out := make([]UncCmp, 1+r.Intn(2))
		for i := range out {
			lit := 8 + 6*r.Float64()
			if r.Intn(3) == 0 {
				lit = []float64{0, math.NaN(), math.Inf(1), 1e12}[r.Intn(4)]
			}
			out[i] = UncCmp{Pos: r.Intn(len(unc)), Op: []string{"eq", "ne", "lt", "le", "gt", "ge"}[r.Intn(6)], Lit: lit}
		}
		return out
	}
	// uncPred sets q's uncertain predicate: as UncWhere conjuncts when
	// typed, else as the closure reading them as engine.Value orders two
	// floats — per instance from the realized row.
	uncPred := func(q AggQuery, cs []UncCmp, typed bool) oracleReq {
		if typed {
			q.UncWhere = cs
			return oracleReq{q: q}
		}
		evals := new(atomic.Int64)
		q.WhereUnc = func(det engine.Row, vals []float64) bool {
			evals.Add(1)
			if len(vals) == 0 {
				for _, c := range unc {
					vals = append(vals, det[c].AsFloat())
				}
			}
			return passes(cs, vals)
		}
		return oracleReq{q: q, evals: evals}
	}
	agg := func(fn engine.AggFunc, det bool) AggQuery {
		q := AggQuery{Table: "s", Col: cols[r.Intn(len(cols))], Fn: fn}
		if det {
			q.WhereDet = whereDet()
		}
		return q
	}
	for _, fn := range []engine.AggFunc{engine.AggCount, engine.AggSum, engine.AggAvg} {
		for _, det := range []bool{false, true} {
			q, cs := agg(fn, det), cmps()
			w.reqs = append(w.reqs, oracleReq{q: q}, uncPred(q, cs, false))
			if !w.perInstance {
				w.reqs = append(w.reqs, uncPred(q, cs, true))
			}
		}
	}
	if !w.perInstance {
		g, capAt := int64(r.Intn(7)), 8+4*r.Float64()
		mine := byGrp(func(v int64) bool { return v == g })
		deltas := []Delta{
			{Table: "s", Where: mine, MapUnc: func(_ engine.Row, u []float64) { u[0] = math.Min(u[0], capAt) }},
			{Table: "s", Where: mine, MapUnc: func(_ engine.Row, u []float64) { u[0] += 5 }},
			{Table: w.other, MapUnc: func(_ engine.Row, u []float64) { u[0] = 2*u[0] - 100 }},
		}
		if len(unc) > 1 {
			deltas = append(deltas, Delta{Table: "s", MapUnc: func(_ engine.Row, u []float64) { u[1] = 2*u[1] + 1 }})
		}
		for i := range deltas {
			rq := uncPred(agg(engine.AggFunc(r.Intn(3)), r.Intn(2) == 0), cmps(), r.Intn(2) == 0)
			if i == 3 { // u's sum, unfiltered: every iteration is dirty
				rq = oracleReq{q: AggQuery{Table: "s", Col: cols[1], Fn: engine.AggSum}}
			}
			rq.d, rq.evals = &deltas[i], nil
			w.reqs = append(w.reqs, rq)
		}
		for _, typed := range []bool{false, true} {
			rq := uncPred(agg(engine.AggCount, r.Intn(2) == 0), cmps(), typed)
			rq.lineage, rq.evals = true, nil
			w.reqs = append(w.reqs, rq)
		}
	}

	has := func(sql string) bool {
		for _, m := range sColumn.FindAllStringSubmatch(sql, -1) {
			if _, err := s.Schema.ColIndex(m[1]); err != nil {
				return false
			}
		}
		return true
	}
	addSQL := func(sql string, planOnce bool) {
		if has(sql) {
			w.reqs = append(w.reqs, oracleReq{sql: sql, planOnce: planOnce && !w.perInstance})
		}
	}
	for _, from := range sqlFroms {
		for rep := 0; rep < 2 && has(from); rep++ {
			joined := strings.Contains(from, "dims")
			var sql string
			for sql == "" || !has(sql) || !joined && strings.Contains(sql, "dims") {
				sql = "SELECT " + sqlAggs[r.Intn(len(sqlAggs))] + " FROM " + from
				if where := sqlWheres[r.Intn(len(sqlWheres))]; where != "" {
					sql += " WHERE " + where
				}
			}
			if len(cols) == 2 && rep == 1 {
				sql = strings.Replace(sql, "(s.val)", "(s.u)", 1)
			}
			if from == "s" {
				sql = strings.ReplaceAll(sql, "s.", "")
			}
			addSQL(sql, true)
		}
	}
	for _, sql := range sqlTails {
		addSQL(sql, true)
	}
	for _, sql := range perInstanceSQL {
		addSQL(sql, false)
	}
	return w
}

// passes reports whether vals pass every conjunct of cmps, comparing as
// engine.Value orders two floats.
func passes(cmps []UncCmp, vals []float64) bool {
	for _, c := range cmps {
		u, lit := engine.Float(vals[c.Pos]), engine.Float(c.Lit)
		if !(c.Op == "eq" && u.Equal(lit) || c.Op == "ne" && !u.Equal(lit) || c.Op == "lt" && u.Less(lit) ||
			c.Op == "le" && !lit.Less(u) || c.Op == "gt" && lit.Less(u) || c.Op == "ge" && !u.Less(lit)) {
			return false
		}
	}
	return true
}

// refAnswer is a reference's answer to one request: per iteration the
// sample and, on bundles, the contributing tuples; how many tuples pass
// WhereDet; how many iterations select nothing; for a what-if, how many
// tuples it maps and at how many iterations it changes a value.
type refAnswer struct {
	samples          []float64
	lineage          [][]int
	passDet, empties int
	mapped, dirty    int
}

// refAgg is fn over a selection of n values summing to sum, with the
// empty selection written out: COUNT = SUM = AVG = 0.
func refAgg(fn engine.AggFunc, sum, n float64) float64 {
	switch {
	case n == 0:
		return 0
	case fn == engine.AggCount:
		return n
	case fn == engine.AggSum:
		return sum
	}
	return sum / n
}

// bundleRef answers q over the run opts describes from
// InstantiateBundled's tables, one plain loop per iteration over the
// tuples, with d mapping the values of the tuples it selects when d
// changes q's table.
func bundleRef(db *DB, q AggQuery, opts ExecOptions, d *Delta) (refAnswer, error) {
	tables, err := db.InstantiateBundled(opts.Iterations, opts.Seed)
	if err != nil {
		return refAnswer{}, err
	}
	bt := tables[q.Table]
	col, _ := bt.Schema.ColIndex(q.Col)
	k := slices.Index(bt.UncertainCols, col)
	a := refAnswer{samples: make([]float64, bt.Iters), lineage: make([][]int, bt.Iters)}
	vals, was := make([]float64, len(bt.UncertainCols)), make([]float64, len(bt.UncertainCols))
	for it := range a.samples {
		var sum, n float64
		changed := false
		a.lineage[it], a.passDet, a.mapped = []int{}, 0, 0
		for ti, det := range bt.Det {
			if q.WhereDet != nil && !q.WhereDet(det) {
				continue
			}
			a.passDet++
			for c := range vals {
				vals[c] = bt.Unc[ti][c][it]
			}
			if d != nil && d.Table == q.Table && (d.Where == nil || d.Where(det)) {
				copy(was, vals)
				d.MapUnc(det, vals)
				changed = changed || !slices.Equal(was, vals) // a NaN counts as changed
				a.mapped++
			}
			if passes(q.UncWhere, vals) && (q.WhereUnc == nil || q.WhereUnc(det, vals)) {
				sum += vals[k]
				n++
				a.lineage[it] = append(a.lineage[it], ti)
			}
		}
		if n == 0 {
			a.empties++
		}
		if changed {
			a.dirty++
		}
		a.samples[it] = refAgg(q.Fn, sum, n)
	}
	return a, nil
}

// instanceRef answers q over a spec with no UncertainCols: DB.MonteCarlo
// with a loop over each realized table's rows.
func instanceRef(db *DB, q AggQuery, opts ExecOptions) (refAnswer, error) {
	spec, err := db.Spec(q.Table)
	if err != nil {
		return refAnswer{}, err
	}
	col, _ := spec.Schema.ColIndex(q.Col)
	var a refAnswer
	a.samples, err = db.MonteCarlo(context.Background(), opts.Iterations, opts.Seed, 1, func(inst *engine.Database) (float64, error) {
		t, err := inst.Get(q.Table)
		if err != nil {
			return 0, err
		}
		var sum, n float64
		a.passDet = 0
		for _, row := range t.Rows {
			if q.WhereDet != nil && !q.WhereDet(row) {
				continue
			}
			a.passDet++
			if q.WhereUnc == nil || q.WhereUnc(row, nil) {
				sum += row[col].AsFloat()
				n++
			}
		}
		if n == 0 {
			a.empties++
		}
		return refAgg(q.Fn, sum, n), nil
	})
	return a, err
}

// reference answers rq over w's run.
func (w *oracleWorld) reference(rq oracleReq) (refAnswer, error) {
	opts := ExecOptions{Iterations: w.iters, Seed: w.seed}
	switch {
	case rq.sql != "":
		p, err := engine.Prepare(rq.sql)
		if err != nil {
			return refAnswer{}, err
		}
		samples, err := w.db.MonteCarlo(context.Background(), w.iters, w.seed, 1, p.Scalar)
		return refAnswer{samples: samples}, err
	case w.perInstance:
		return instanceRef(w.db, rq.q, opts)
	}
	return bundleRef(w.db, rq.q, opts, rq.d)
}

// exec runs rq over the window [lo, hi) on s.
func (rq oracleReq) exec(ctx context.Context, s *Session, opts ExecOptions, lo, hi int) ([]float64, error) {
	switch {
	case rq.sql != "":
		return s.ExecSQLRange(ctx, rq.sql, opts, lo, hi)
	case rq.d != nil:
		return s.ExecDeltaRange(ctx, rq.q, opts, *rq.d, lo, hi)
	}
	return s.ExecRange(ctx, rq.q, opts, lo, hi)
}

// The kinds of request, each the slice of the lattice one test holds to
// its reference.
const (
	kindAggregate   = "aggregate"    // an AggQuery over a bundled s
	kindPerInstance = "per-instance" // an AggQuery over a per-instance s, or SQL that runs per instance
	kindPlanOnce    = "plan-once"    // SQL that runs once over bundles
	kindWhatIf      = "what-if"
	kindLineage     = "lineage"
)

// kind sorts rq, a request of w, into exactly one kind.
func (w *oracleWorld) kind(rq oracleReq) string {
	switch {
	case rq.lineage:
		return kindLineage
	case rq.d != nil:
		return kindWhatIf
	case rq.sql != "" && rq.planOnce:
		return kindPlanOnce
	case rq.sql != "" || w.perInstance:
		return kindPerInstance
	}
	return kindAggregate
}

// Which of a world's windows a check runs.
const (
	allWindows  = iota
	cutWindows  // the three cuts, which concatenate to the whole run
	restWindows // one past 0, first; the whole run; an empty one
)

// check runs the requests of w of kind (every kind when kind is "") at
// every point of the lattice whose window which selects, holding each
// to its reference, and returns how many requests empty some
// iterations but not all.
func (w *oracleWorld) check(t *testing.T, kind string, which int) (someEmpty int) {
	t.Helper()
	ctx, n := context.Background(), w.iters
	a := 1 + w.pick.Intn(n-2)
	b := a + 1 + w.pick.Intn(n-1-a)
	empty := w.pick.Intn(n + 1)
	cuts := [][2]int{{0, a}, {a, b}, {b, n}}
	rest := [][2]int{{1 + w.pick.Intn(n-1), n}, {0, n}, {empty, empty}}
	windows := append(slices.Clone(rest), cuts...)
	switch which {
	case cutWindows:
		windows = cuts
	case restWindows:
		windows = rest
	}
	warm := w.db.NewSession()
	for _, rq := range w.reqs {
		rq.exec(ctx, warm, ExecOptions{Iterations: n, Seed: w.seed + 1, Workers: 2}, 0, n) // an error is the reference's to judge
	}
	for i, rq := range w.reqs {
		if kind != "" && w.kind(rq) != kind {
			continue
		}
		name := fmt.Sprintf("world %d, request %d (%s%v of %s, UncWhere %v, what-if %v, lineage %v)",
			w.id, i, rq.sql, rq.q.Fn, rq.q.Col, rq.q.UncWhere, rq.d != nil, rq.lineage)
		want, err := w.reference(rq)
		if err != nil {
			if _, got := rq.exec(ctx, w.db.NewSession(), ExecOptions{Iterations: n, Seed: w.seed}, 0, n); got == nil {
				t.Errorf("%s: the reference refuses it (%v), the executor does not", name, err)
			}
			continue
		}
		if want.empties > 0 && want.empties < n {
			someEmpty++
		}
		for _, workers := range []int{1, 2, 8} {
			opts := ExecOptions{Iterations: n, Seed: w.seed, Workers: workers}
			for _, s := range []*Session{w.db.NewSession(), warm} {
				if rq.lineage {
					if got, err := s.ExecLineage(ctx, rq.q, opts); err != nil || !slices.EqualFunc(got, want.lineage, slices.Equal[[]int]) {
						t.Fatalf("%s, %d workers: lineage %v (%v), want %v", name, workers, got, err, want.lineage)
					}
					continue
				}
				for _, win := range windows {
					stats := parallel.NewStats()
					if rq.evals != nil {
						rq.evals.Store(0)
					}
					got, err := rq.exec(parallel.WithStats(ctx, stats), s, opts, win[0], win[1])
					if err != nil || len(got) != win[1]-win[0] {
						t.Fatalf("%s, %d workers, window %v: %d samples, %v", name, workers, win, len(got), err)
					}
					for j, v := range got {
						if it := win[0] + j; !sameBits(v, want.samples[it]) {
							t.Fatalf("%s, %d workers, window %v, iteration %d: %v, reference %v", name, workers, win, it, v, want.samples[it])
						}
					}
					reg := stats.Registry()
					if once, per := reg.Counter(MetricSQLPlanOnce).Value(), reg.Counter(MetricSQLPerInstance).Value(); rq.sql != "" && (once+per != 1 || (once == 1) != rq.planOnce) {
						t.Fatalf("%s, window %v: %d windows ran plan-once and %d per instance, want plan-once %v", name, win, once, per, rq.planOnce)
					}
					if skipped, mapped := reg.Counter(MetricDeltaItersSkipped).Value(), reg.Counter(MetricDeltaTuplesRerealized).Value(); rq.d != nil &&
						(skipped != int64(n-want.dirty) || mapped != int64(want.mapped)) {
						t.Fatalf("%s, window %v: %d iterations skipped and %d tuples mapped, want the run's %d and %d", name, win, skipped, mapped, n-want.dirty, want.mapped)
					}
					if rq.evals != nil && rq.d == nil && rq.evals.Load() != int64(want.passDet*(win[1]-win[0])) {
						t.Fatalf("%s, window %v: WhereUnc ran %d times, want %d tuples × %d iterations",
							name, win, rq.evals.Load(), want.passDet, win[1]-win[0])
					}
				}
			}
		}
	}
	return someEmpty
}

// runOracle checks the requests of kind over the windows which selects
// in every world of seeds 0 to 13: each shape of s, on bundles and per
// instance. It returns how many requests empty some iterations but not
// all.
func runOracle(t *testing.T, kind string, which int) (someEmpty int) {
	t.Helper()
	for seed := uint64(0); seed < 2*uint64(len(oracleShapes())); seed++ {
		someEmpty += newWorld(seed).check(t, kind, which)
	}
	return someEmpty
}

// The oracle's lattice, one slice per test: every kind of request, the
// SQL and what-if kinds split by window into the three cuts that
// concatenate to the run and the rest.

// TestExecEquivalenceTable holds COUNT, SUM and AVG over a bundled s —
// with and without WhereDet, the uncertain predicate as UncWhere and as
// the WhereUnc closure — to bundleRef, counting the closure's calls per
// window, and needs some request to empty some iterations but not all.
func TestExecEquivalenceTable(t *testing.T) {
	if runOracle(t, kindAggregate, allWindows) == 0 {
		t.Error("no request emptied some iterations but not all; the empty-selection rule was checked on nothing")
	}
}

// TestPerInstanceMatchesMonteCarlo holds the aggregates over a
// per-instance s, and SQL that runs per instance, to DB.MonteCarlo.
func TestPerInstanceMatchesMonteCarlo(t *testing.T) {
	runOracle(t, kindPerInstance, allWindows)
}

// TestPlanOnceMatchesMonteCarlo holds plan-once SQL over the whole run,
// a window past 0 and an empty one to DB.MonteCarlo with
// Prepared.Scalar, and needs some statement to run in a cost-chosen
// join order.
func TestPlanOnceMatchesMonteCarlo(t *testing.T) {
	reordered := obs.Default().Counter(engine.MetricPlanReordered)
	reordered0 := reordered.Value()
	runOracle(t, kindPlanOnce, restWindows)
	if reordered.Value() == reordered0 {
		t.Error("no statement ran in a cost-chosen join order; the four-scan FROM no longer covers the restoring sort")
	}
}

// TestExecRangeShardsBitIdentical holds plan-once SQL over three cuts of
// the run to DB.MonteCarlo, so the cuts concatenate to the whole run.
func TestExecRangeShardsBitIdentical(t *testing.T) {
	runOracle(t, kindPlanOnce, cutWindows)
}

// TestExecDeltaRandomizedEquivalence holds what-ifs — a cap, a shift, a
// change to another table, a map of the second uncertain column — over
// the whole run, a window past 0 and an empty one to bundleRef's
// changed world, with the iterations they skip and the tuples they map.
func TestExecDeltaRandomizedEquivalence(t *testing.T) {
	runOracle(t, kindWhatIf, restWindows)
}

// TestExecDeltaWindowsConcatenate holds the what-ifs over three cuts of
// the run to bundleRef, so the cuts concatenate to the whole run.
func TestExecDeltaWindowsConcatenate(t *testing.T) {
	runOracle(t, kindWhatIf, cutWindows)
}

// TestOracleLineage holds ExecLineage to the tuples bundleRef collects.
func TestOracleLineage(t *testing.T) {
	runOracle(t, kindLineage, allWindows)
}

// FuzzOracle runs the oracle over the world any seed builds.
func FuzzOracle(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { newWorld(seed).check(t, "", allWindows) })
}
