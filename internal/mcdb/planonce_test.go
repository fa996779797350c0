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
		{"no ForEach, default OutputRow", starLike(t, func(s *TableSpec) {
			s.ForEach, s.OutputRow = "", nil
			s.Params = func(*engine.Database, engine.Row) (engine.Row, error) {
				return engine.Row{engine.Float(7), engine.Float(50), engine.Float(5)}, nil
			}
			s.VG = drawEach(2, func(params engine.Row, r *rng.Stream, vals []float64) error {
				vals[0], vals[1] = params[0].AsFloat(), r.Normal(params[1].AsFloat(), params[2].AsFloat())
				return nil
			})
		}), "SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.sid = stores.sid WHERE sales.amount > 48", true},
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
			s.OutputRow = func(outer engine.Row, vg []engine.Value) engine.Row {
				return engine.Row{outer[0], engine.Int(vg[0].AsInt())}
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
		VG: drawEach(2, func(_ engine.Row, r *rng.Stream, vals []float64) error {
			vals[0], vals[1] = r.Float64(), r.Float64()
			return nil
		})}); err != nil {
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

// TestPlanOnceReadsOutputRowInPlace: plan-once reads a custom
// OutputRow's row where it was returned, neither copying nor writing it.
// Here the row is memory the spec keeps, holding an Int in the Float
// column sid: the kept cells stay Ints, the samples are MonteCarlo's,
// and a String that turns up in a later draw is the type clash
// MonteCarlo reports.
func TestPlanOnceReadsOutputRowInPlace(t *testing.T) {
	ctx := context.Background()
	const iters, seed, stores = 5, 13, 60
	const sql = "SELECT SUM(amount) FROM sales WHERE sid < 30 AND amount > 50"
	p, err := engine.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, clashAt := range []int64{0, 2*stores + 7} { // the draw that returns a String sid; 0 is none
		kept := make([]engine.Row, stores)
		for i := range kept {
			kept[i] = engine.Row{engine.Int(int64(i)), engine.Float(0)}
		}
		var draws atomic.Int64
		db := starLike(t, func(s *TableSpec) {
			s.Schema = engine.Schema{{Name: "sid", Type: engine.TypeFloat}, {Name: "amount", Type: engine.TypeFloat}}
			s.OutputRow = func(outer engine.Row, vg []engine.Value) engine.Row {
				if draws.Add(1) == clashAt {
					return engine.Row{engine.Str("late"), vg[0]}
				}
				row := kept[outer[0].AsInt()]
				row[1] = vg[0]
				return row
			}
		})
		want, wantErr := db.MonteCarlo(ctx, iters, seed, 1, p.Scalar)
		draws.Store(0)
		stats := parallel.NewStats()
		got, err := db.NewSession().ExecSQL(parallel.WithStats(ctx, stats), sql, ExecOptions{Iterations: iters, Seed: seed, Workers: 1})
		if n := stats.Registry().Counter(MetricSQLPlanOnce).Value(); n != 1 {
			t.Fatalf("clash at draw %d: %d windows ran plan-once, want 1", clashAt, n)
		}
		if clashAt > 0 {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() || !errors.Is(err, ErrBadSpec) || !errors.Is(err, engine.ErrTypeClash) {
				t.Fatalf("clash at draw %d: got %v, MonteCarlo %v; want the same ErrBadSpec type clash", clashAt, err, wantErr)
			}
			continue
		}
		if err != nil || wantErr != nil {
			t.Fatalf("ExecSQL: %v, MonteCarlo: %v", err, wantErr)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("iteration %d: %v, MonteCarlo %v", i, got[i], want[i])
			}
		}
		for i, row := range kept {
			if row[0] != engine.Int(int64(i)) {
				t.Fatalf("kept row %d holds sid %v after the run, want the Int %d it was given", i, row[0], i)
			}
		}
	}
}

// TestPlanOnceFailsBeforeAnyDraw: a statement that does not bind, or
// whose result can never be one numeric cell, is refused before a VG is
// called; a broken spec is still the spec's fault.
func TestPlanOnceFailsBeforeAnyDraw(t *testing.T) {
	var calls atomic.Int64
	db := starLike(t, func(s *TableSpec) {
		vg := s.VG
		s.VG = VG{Width: vg.Width, Draw: func(params engine.Row, r *rng.Stream, out [][]float64) error {
			calls.Add(1)
			return vg.Draw(params, r, out)
		}}
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
		s.VG = VG{Width: 1, Draw: func(engine.Row, *rng.Stream, [][]float64) error {
			return errors.New("no distribution")
		}}
	})
	if _, err := broken.NewSession().ExecSQL(ctx, starSQL, opts); !errors.Is(err, ErrBadSpec) {
		t.Errorf("broken VG: got %v, want ErrBadSpec", err)
	}
}

// poissonVG draws one integer from Poisson(params[0]) per tuple: the
// fixture for an integer uncertain column.
func poissonVG() VG {
	return drawEach(1, func(params engine.Row, r *rng.Stream, vals []float64) error {
		if len(params) < 1 {
			return fmt.Errorf("%w: Poisson VG needs (lambda)", ErrBadSpec)
		}
		vals[0] = float64(r.Poisson(params[0].AsFloat()))
		return nil
	})
}
