package mcdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// The plan-once executor's oracle. Whatever the spec and the statement,
// Session.ExecSQLRange returns the bits DB.MonteCarlo returns when it
// instantiates a whole database per iteration and runs the statement
// against it, at any worker count and window cut.

// diffBase is the deterministic side: items (the FOR EACH table), dims
// keyed by items.grp with every key twice (fan-out 2) and keys on either
// side that match nothing, cats keyed by dims.label, and tiny, a one-row
// dimension on items.tag that the cost-based planner joins first
// wherever it was written.
func diffBase() *engine.Database {
	base := engine.NewDatabase()
	items := engine.MustNewTable("items", engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "w", Type: engine.TypeFloat},
		{Name: "grp", Type: engine.TypeInt},
		{Name: "tag", Type: engine.TypeString},
	})
	for i := 0; i < 40; i++ {
		items.MustInsert(engine.Int(int64(i)), engine.Float(8+float64(i%5)), engine.Int(int64(i%7)), engine.Str(fmt.Sprintf("t%d", i%4)))
	}
	base.Put(items)
	dims := engine.MustNewTable("dims", engine.Schema{
		{Name: "k", Type: engine.TypeInt},
		{Name: "label", Type: engine.TypeString},
		{Name: "wt", Type: engine.TypeFloat},
	})
	for k := 0; k < 5; k++ { // items.grp 5 and 6 match nothing
		dims.MustInsert(engine.Int(int64(k)), engine.Str(fmt.Sprintf("l%d", k%3)), engine.Float(1+float64(k)/2))
		dims.MustInsert(engine.Int(int64(k)), engine.Str(fmt.Sprintf("l%d", (k+1)%3)), engine.Float(3-float64(k)/2))
	}
	dims.MustInsert(engine.Int(9), engine.Str("l0"), engine.Float(7)) // matches no item
	base.Put(dims)
	cats := engine.MustNewTable("cats", engine.Schema{
		{Name: "label", Type: engine.TypeString},
		{Name: "zone", Type: engine.TypeInt},
	})
	for l := 0; l < 3; l++ {
		cats.MustInsert(engine.Str(fmt.Sprintf("l%d", l)), engine.Int(int64(l%2)))
	}
	base.Put(cats)
	tiny := engine.MustNewTable("tiny", engine.Schema{
		{Name: "tag", Type: engine.TypeString},
		{Name: "note", Type: engine.TypeString},
	})
	tiny.MustInsert(engine.Str("t3"), engine.Str("the one"))
	base.Put(tiny)
	return base
}

// oddVG draws values a float column can hold but arithmetic treats
// specially — NaN, ±Inf, −0 — and an integer Value, which Conform widens.
func oddVG(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
	switch u := r.Float64(); {
	case u < 0.08:
		return append(out, engine.Float(math.NaN())), nil
	case u < 0.16:
		return append(out, engine.Float(math.Inf(1))), nil
	case u < 0.24:
		return append(out, engine.Float(math.Inf(-1))), nil
	case u < 0.4:
		return append(out, engine.Float(math.Copysign(0, -1))), nil
	case u < 0.6:
		return append(out, engine.Int(int64(u*40))), nil
	}
	return append(out, engine.Float(r.Normal(params[1].AsFloat(), 3))), nil
}

// diffSpecs are the shapes of the stochastic table s the statements
// read. Every one has the columns id, grp, tag and val.
func diffSpecs() []struct {
	name string
	spec *TableSpec
} {
	outerVal := engine.Schema{
		{Name: "id", Type: engine.TypeInt}, {Name: "w", Type: engine.TypeFloat},
		{Name: "grp", Type: engine.TypeInt}, {Name: "tag", Type: engine.TypeString},
		{Name: "val", Type: engine.TypeFloat},
	}
	return []struct {
		name string
		spec *TableSpec
	}{
		{"default OutputRow, Params", &TableSpec{Name: "s", Schema: outerVal, ForEach: "items", UncertainCols: []int{4}, VG: NormalVG(),
			Params: func(_ *engine.Database, outer engine.Row) (engine.Row, error) {
				return engine.Row{outer[1], engine.Float(2)}, nil
			}}},
		{"custom OutputRow, nil Params", &TableSpec{Name: "s", ForEach: "items", UncertainCols: []int{2},
			Schema: engine.Schema{
				{Name: "grp", Type: engine.TypeInt}, {Name: "tag", Type: engine.TypeString},
				{Name: "val", Type: engine.TypeFloat}, {Name: "id", Type: engine.TypeInt},
			},
			VG: func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
				return append(out, engine.Float(r.Normal(params[1].AsFloat(), 2))), nil
			},
			OutputRow: func(outer engine.Row, vg []engine.Value) engine.Row {
				return engine.Row{outer[2], outer[3], vg[0], outer[0]}
			}}},
		{"two uncertain columns", &TableSpec{Name: "s", ForEach: "items", UncertainCols: []int{4, 5},
			Schema: append(outerVal.Clone(), engine.Column{Name: "u", Type: engine.TypeFloat}),
			VG: func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
				return append(out, engine.Float(r.Normal(params[1].AsFloat(), 2)), engine.Float(20*r.Float64())), nil
			}}},
		{"NaN, Inf, -0 and ints", &TableSpec{Name: "s", Schema: outerVal, ForEach: "items", UncertainCols: []int{4}, VG: oddVG}},
		{"no ForEach", &TableSpec{Name: "s", UncertainCols: []int{3},
			Schema: engine.Schema{
				{Name: "id", Type: engine.TypeInt}, {Name: "grp", Type: engine.TypeInt},
				{Name: "tag", Type: engine.TypeString}, {Name: "val", Type: engine.TypeFloat},
			},
			VG: func(_ engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
				return append(out, engine.Int(0), engine.Int(3), engine.Str("t3"), engine.Float(r.Normal(10, 2))), nil
			}}},
		{"FOR EACH an empty table", &TableSpec{Name: "s", Schema: outerVal, ForEach: "nothing", UncertainCols: []int{4}, VG: oddVG}},
	}
}

// diffFroms put s first, second and third among the scans, under one,
// two and three joins; the last is the order the planner rewrites.
var diffFroms = []string{
	"s",
	"s JOIN dims ON s.grp = dims.k",
	"dims JOIN s ON dims.k = s.grp",
	"s JOIN dims ON s.grp = dims.k JOIN cats ON dims.label = cats.label",
	"cats JOIN dims ON cats.label = dims.label JOIN s ON s.grp = dims.k",
	"s JOIN dims ON s.grp = dims.k JOIN cats ON dims.label = cats.label JOIN tiny ON s.tag = tiny.tag",
}

// diffWheres name only s and dims; a statement without dims drops the
// ones that need it. "" is no WHERE at all.
var diffWheres = []string{
	"",
	"dims.wt > 1.5",
	"s.grp < 4",
	"s.val > 10",
	"dims.wt > 1.5 AND s.val > 10 AND s.grp < 6",
	"s.val > 12 OR dims.wt > 2.5",
	"s.val > 11 OR s.grp = 2",
	"NOT s.val > 10",
	"s.val BETWEEN 9 AND 12",
	"s.val > 1000000000",
}

// diffTails end in something other than one aggregate: the operations
// after the join region run per iteration whatever they are.
var diffTails = []string{
	"SELECT s.val FROM s JOIN tiny ON s.tag = tiny.tag WHERE s.id < 20 ORDER BY s.val DESC LIMIT 1",
	"SELECT DISTINCT dims.k FROM dims JOIN s ON dims.k = s.grp WHERE s.val > 11 AND dims.k = 2",
	"SELECT MAX(s.val) AS top FROM s JOIN dims ON s.grp = dims.k GROUP BY s.tag ORDER BY top LIMIT 1",
}

var diffAggs = []string{"SUM(s.val)", "AVG(s.val)", "COUNT(*)", "MIN(s.val)", "MAX(s.val)", "SUM(dims.wt)"}

// diffStatement draws one statement over from off the seeded walk of
// wheres × aggregates, unqualifying the column names of a statement
// without joins.
func diffStatement(from string, pick *rng.Stream) string {
	joined := strings.Contains(from, "dims")
	var where, agg string
	for {
		where, agg = diffWheres[pick.Intn(len(diffWheres))], diffAggs[pick.Intn(len(diffAggs))]
		if joined || !strings.Contains(where+agg, "dims") {
			break
		}
	}
	sql := "SELECT " + agg + " FROM " + from
	if where != "" {
		sql += " WHERE " + where
	}
	if from == "s" {
		sql = strings.ReplaceAll(sql, "s.", "")
	}
	return sql
}

func TestPlanOnceMatchesMonteCarlo(t *testing.T) {
	pick := rng.New(2014)
	reordered := obs.Default().Counter(engine.MetricPlanReordered)
	reordered0 := reordered.Value()
	extra := func(name string, unc []int) *TableSpec {
		return &TableSpec{Name: name, Schema: idWVal, ForEach: "lots", Params: wStd, VG: NormalVG(), UncertainCols: unc}
	}
	for _, ds := range diffSpecs() {
		name, spec := ds.name, ds.spec
		// s sits between two specs no statement reads; their draws move
		// the iteration's stream all the same.
		base := diffBase()
		base.Put(itemsBaseTable("lots", 11))
		base.Put(itemsBaseTable("nothing", 0))
		db := New(base)
		for _, sp := range []*TableSpec{extra("before", nil), spec, extra("after", []int{2})} {
			if err := db.AddSpec(sp); err != nil {
				t.Fatal(err)
			}
		}
		var sqls []string
		for _, from := range diffFroms {
			for rep := 0; rep < 4; rep++ {
				sql := diffStatement(from, pick)
				if len(spec.UncertainCols) == 2 && rep%2 == 1 {
					sql = strings.Replace(sql, "(s.val)", "(s.u)", 1)
				}
				sqls = append(sqls, sql)
			}
		}
		for _, sql := range append(sqls, diffTails...) {
			matchesMonteCarlo(t, name, db, sql)
		}
	}
	if reordered.Value() == reordered0 {
		t.Fatal("no statement was executed in a cost-chosen join order; the three-join shape no longer covers the restoring sort")
	}
}

// matchesMonteCarlo holds one statement over one database to the oracle:
// every window of every cut at every worker count runs plan-once and
// returns MonteCarlo's bits.
func matchesMonteCarlo(t *testing.T, name string, db *DB, sql string) {
	t.Helper()
	const iters, seed = 7, 97
	ctx := context.Background()
	p, err := engine.Prepare(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	want, err := db.MonteCarlo(ctx, iters, seed, 1, p.Scalar)
	if err != nil {
		// Not one row in some iteration: the statement fails on
		// either executor.
		if _, err := db.NewSession().ExecSQL(ctx, sql, ExecOptions{Iterations: iters, Seed: seed}); err == nil {
			t.Fatalf("%s, %s: MonteCarlo refuses it, ExecSQL does not", name, sql)
		}
		return
	}
	for _, workers := range []int{1, 2, 8} {
		for _, cuts := range [][]int{{0, iters}, {0, 2, 5, iters}, {3, 4}} {
			stats := parallel.NewStats()
			sctx := parallel.WithStats(ctx, stats)
			opts := ExecOptions{Iterations: iters, Seed: seed, Workers: workers}
			sess := db.NewSession()
			for w := 0; w+1 < len(cuts); w++ {
				got, err := sess.ExecSQLRange(sctx, sql, opts, cuts[w], cuts[w+1])
				if err != nil {
					t.Fatalf("%s, %s: ExecSQLRange: %v", name, sql, err)
				}
				for i, v := range got {
					if it := cuts[w] + i; math.Float64bits(v) != math.Float64bits(want[it]) {
						t.Fatalf("%s, %s, %d workers, windows %v, iteration %d: %v, MonteCarlo %v", name, sql, workers, cuts, it, v, want[it])
					}
				}
			}
			reg := stats.Registry()
			if once, per := reg.Counter(MetricSQLPlanOnce).Value(), reg.Counter(MetricSQLPerInstance).Value(); once != int64(len(cuts)-1) || per != 0 {
				t.Fatalf("%s, %s: %d windows ran plan-once and %d per instance, want all %d plan-once", name, sql, once, per, len(cuts)-1)
			}
		}
	}
}

// itemsBaseTable is itemsBase's table under another name.
func itemsBaseTable(name string, n int) *engine.Table {
	t, _ := itemsBase(n).Get("items")
	t = t.Clone()
	t.Name = name
	return t
}

// starLike is the serve_sql shape at test size: sales FOR EACH stores
// through a custom OutputRow, amount uncertain.
func starLike(t *testing.T, spec func(*TableSpec)) *DB {
	t.Helper()
	base := engine.NewDatabase()
	stores := engine.MustNewTable("stores", engine.Schema{
		{Name: "sid", Type: engine.TypeInt}, {Name: "region", Type: engine.TypeInt}, {Name: "base", Type: engine.TypeFloat},
	})
	for i := 0; i < 60; i++ {
		stores.MustInsert(engine.Int(int64(i)), engine.Int(int64(i%8)), engine.Float(45+float64(i%13)))
	}
	base.Put(stores)
	regions := engine.MustNewTable("regions", engine.Schema{{Name: "rid", Type: engine.TypeInt}, {Name: "zone", Type: engine.TypeString}})
	for i := 0; i < 8; i++ {
		regions.MustInsert(engine.Int(int64(i)), engine.Str([]string{"north", "south"}[i%2]))
	}
	base.Put(regions)
	db := New(base)
	sales := &TableSpec{Name: "sales", ForEach: "stores", UncertainCols: []int{1}, VG: NormalVG(),
		Schema: engine.Schema{{Name: "sid", Type: engine.TypeInt}, {Name: "amount", Type: engine.TypeFloat}},
		Params: func(_ *engine.Database, outer engine.Row) (engine.Row, error) {
			return engine.Row{outer[2], engine.Float(5)}, nil
		},
		OutputRow: func(outer engine.Row, vg []engine.Value) engine.Row { return engine.Row{outer[0], vg[0]} }}
	if spec != nil {
		spec(sales)
	}
	if err := db.AddSpec(sales); err != nil {
		t.Fatal(err)
	}
	return db
}

const (
	starSQL = "SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.sid = stores.sid " +
		"JOIN regions ON stores.region = regions.rid WHERE regions.zone = 'north' AND sales.amount > 52"
	smokeJoinSQL = "SELECT AVG(sbp_data.sbp) FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid"
)

// TestSQLExecutorChoice pins which executor answers each statement
// shape, and that the answer is MonteCarlo's either way.
func TestSQLExecutorChoice(t *testing.T) {
	secondStochastic := func(db *DB) *DB {
		if err := db.AddSpec(&TableSpec{Name: "returns", ForEach: "stores", UncertainCols: []int{1}, VG: NormalVG(),
			Schema: engine.Schema{{Name: "sid", Type: engine.TypeInt}, {Name: "qty", Type: engine.TypeFloat}},
			Params: func(_ *engine.Database, outer engine.Row) (engine.Row, error) {
				return engine.Row{engine.Float(3), engine.Float(1)}, nil
			},
			OutputRow: func(outer engine.Row, vg []engine.Value) engine.Row { return engine.Row{outer[0], vg[0]} }}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, tc := range []struct {
		name     string
		db       *DB
		sql      string
		planOnce bool
	}{
		{"star join", starLike(t, nil), starSQL, true},
		{"smoke join", sbpFixture(t, 9), smokeJoinSQL, true},
		{"no join", starLike(t, nil), "SELECT AVG(amount) FROM sales WHERE amount > 50", true},
		{"no UncertainCols", starLike(t, func(s *TableSpec) { s.UncertainCols = nil }), starSQL, false},
		{"uncertain join key", starLike(t, nil), "SELECT COUNT(*) FROM sales JOIN stores ON sales.amount = stores.base", false},
		{"self-join of the stochastic table", starLike(t, nil),
			"SELECT SUM(sales.amount) FROM sales JOIN sales ON sales.sid = sales.sid", false},
		{"two stochastic tables", secondStochastic(starLike(t, nil)),
			"SELECT SUM(sales.amount) FROM sales JOIN returns ON sales.sid = returns.sid WHERE returns.qty > 3", false},
		{"integer uncertain column", starLike(t, func(s *TableSpec) {
			s.Schema = engine.Schema{{Name: "sid", Type: engine.TypeInt}, {Name: "amount", Type: engine.TypeInt}}
			s.VG = poissonVG()
			s.Params = func(_ *engine.Database, outer engine.Row) (engine.Row, error) {
				return engine.Row{engine.Float(4)}, nil
			}
		}), "SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.sid = stores.sid WHERE sales.amount > 3", false},
		{"no stochastic table read", starLike(t, nil),
			"SELECT COUNT(*) FROM stores JOIN regions ON stores.region = regions.rid WHERE regions.zone = 'north'", false},
	} {
		const iters, seed = 5, 11
		p, err := engine.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ctx := context.Background()
		want, err := tc.db.MonteCarlo(ctx, iters, seed, 1, p.Scalar)
		if err != nil {
			t.Fatalf("%s: MonteCarlo: %v", tc.name, err)
		}
		stats := parallel.NewStats()
		tracer := obs.NewTracer()
		sctx := obs.WithTracer(parallel.WithStats(ctx, stats), tracer)
		got, err := tc.db.NewSession().ExecSQL(sctx, tc.sql, ExecOptions{Iterations: iters, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatalf("%s: ExecSQL: %v", tc.name, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s, iteration %d: %v, MonteCarlo %v", tc.name, i, got[i], want[i])
			}
		}
		wantOnce, wantPer, wantAttr := int64(0), int64(1), "per_instance"
		if tc.planOnce {
			wantOnce, wantPer, wantAttr = 1, 0, "plan_once"
		}
		reg := stats.Registry()
		if once, per := reg.Counter(MetricSQLPlanOnce).Value(), reg.Counter(MetricSQLPerInstance).Value(); once != wantOnce || per != wantPer {
			t.Errorf("%s: %s = %d, %s = %d; want %d and %d", tc.name, MetricSQLPlanOnce, once, MetricSQLPerInstance, per, wantOnce, wantPer)
		}
		var attr string
		for _, sp := range tracer.Snapshot() {
			for _, a := range sp.Attrs {
				if sp.Name == "mcdb.sql" && a.Key == "executor" {
					attr = a.Value
				}
			}
		}
		if attr != wantAttr {
			t.Errorf("%s: mcdb.sql span says executor=%q, want %q", tc.name, attr, wantAttr)
		}
	}
}

// TestPlanOnceRefusesALyingSpec: a cell outside UncertainCols that
// changes between draws is the spec's fault, named, never an answer
// computed over the first draw's value — whether a custom OutputRow or
// the VG itself produced it.
func TestPlanOnceRefusesALyingSpec(t *testing.T) {
	ctx := context.Background()
	opts := ExecOptions{Iterations: 4, Seed: 1, Workers: 1}
	var draws atomic.Int64
	byOutputRow := starLike(t, func(s *TableSpec) {
		s.OutputRow = func(outer engine.Row, vg []engine.Value) engine.Row {
			return engine.Row{engine.Int(outer[0].AsInt() + draws.Add(1)/100), vg[0]}
		}
	})
	byVG := New(itemsBase(5))
	if err := byVG.AddSpec(&TableSpec{Name: "sales", ForEach: "items", UncertainCols: []int{3},
		Schema: engine.Schema{{Name: "id", Type: engine.TypeInt}, {Name: "w", Type: engine.TypeFloat},
			{Name: "sid", Type: engine.TypeFloat}, {Name: "amount", Type: engine.TypeFloat}},
		VG: func(_ engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
			return append(out, engine.Float(r.Float64()), engine.Float(r.Float64())), nil
		}}); err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"custom OutputRow": byOutputRow, "VG output": byVG} {
		_, err := db.NewSession().ExecSQL(ctx, "SELECT SUM(amount) FROM sales", opts)
		if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), `"sid"`) {
			t.Errorf("%s: got %v, want ErrBadSpec naming column sid", name, err)
		}
	}

	// A NaN that stays a NaN has not changed.
	steady := starLike(t, func(s *TableSpec) {
		s.Schema = engine.Schema{{Name: "sid", Type: engine.TypeFloat}, {Name: "amount", Type: engine.TypeFloat}}
		s.OutputRow = func(_ engine.Row, vg []engine.Value) engine.Row { return engine.Row{engine.Float(math.NaN()), vg[0]} }
	})
	if _, err := steady.NewSession().ExecSQL(ctx, "SELECT SUM(amount) FROM sales", opts); err != nil {
		t.Errorf("a deterministic NaN cell: %v", err)
	}
}

// TestPlanOnceFailsBeforeAnyDraw: a statement that does not bind, or
// whose result can never be one numeric cell, is refused before a VG is
// called; a broken spec is still the spec's fault.
func TestPlanOnceFailsBeforeAnyDraw(t *testing.T) {
	var calls atomic.Int64
	db := starLike(t, func(s *TableSpec) {
		vg := s.VG
		s.VG = func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
			calls.Add(1)
			return vg(params, r, out)
		}
	})
	ctx := context.Background()
	opts := ExecOptions{Iterations: 3, Seed: 1, Workers: 1}
	for _, sql := range []string{
		"SELECT sales.sid, sales.amount FROM sales JOIN stores ON sales.sid = stores.sid",
		"SELECT regions.zone FROM sales JOIN stores ON sales.sid = stores.sid JOIN regions ON stores.region = regions.rid",
		"SELECT SUM(sales.nope) FROM sales JOIN stores ON sales.sid = stores.sid",
		"SELECT SUM(amount) FROM nowhere",
	} {
		_, err := db.NewSession().ExecSQL(ctx, sql, opts)
		if err == nil || errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: got %v, want the statement's own error", sql, err)
		}
		if n := calls.Swap(0); n != 0 {
			t.Errorf("%s: %d VG calls before the statement was refused", sql, n)
		}
	}
	broken := starLike(t, func(s *TableSpec) {
		s.VG = func(engine.Row, *rng.Stream, []engine.Value) ([]engine.Value, error) {
			return nil, errors.New("no distribution")
		}
	})
	if _, err := broken.NewSession().ExecSQL(ctx, starSQL, opts); !errors.Is(err, ErrBadSpec) {
		t.Errorf("broken VG: got %v, want ErrBadSpec", err)
	}
}

// poissonVG draws one integer from Poisson(params[0]) per tuple: the
// fixture for an integer uncertain column.
func poissonVG() VG {
	return func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
		if len(params) < 1 {
			return nil, fmt.Errorf("%w: Poisson VG needs (lambda)", ErrBadSpec)
		}
		return append(out, engine.Int(int64(r.Poisson(params[0].AsFloat())))), nil
	}
}
