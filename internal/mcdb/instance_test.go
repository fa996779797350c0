package mcdb

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// itemsBase is a base database with one table items(id INT, w FLOAT) of
// n rows.
func itemsBase(n int) *engine.Database {
	base := engine.NewDatabase()
	items := engine.MustNewTable("items", engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "w", Type: engine.TypeFloat},
	})
	for i := 0; i < n; i++ {
		items.MustInsert(engine.Int(int64(i)), engine.Float(10+float64(i%5)))
	}
	base.Put(items)
	return base
}

var idWVal = engine.Schema{
	{Name: "id", Type: engine.TypeInt},
	{Name: "w", Type: engine.TypeFloat},
	{Name: "val", Type: engine.TypeFloat},
}

// wStd is a parameter query: (mean, std) = (outer.w, 2).
func wStd(_ *engine.Database, outer engine.Row) (engine.Row, error) {
	return engine.Row{outer[1], engine.Float(2)}, nil
}

// TestParamsResolvedOncePerSession: a Session resolves the parameter
// query once per outer tuple for its whole life, whichever of its routes
// comes first and however many runs follow; a fresh Session resolves it
// again; and MonteCarlo — E1's baseline, naive by construction —
// resolves it per iteration.
func TestParamsResolvedOncePerSession(t *testing.T) {
	const tuples, iters = 7, 6
	var calls atomic.Int64
	counted := func(b *engine.Database, outer engine.Row) (engine.Row, error) {
		calls.Add(1)
		return wStd(b, outer)
	}
	build := func(unc []int) *DB {
		db := New(itemsBase(tuples))
		if err := db.AddSpec(&TableSpec{Name: "t", Schema: idWVal, ForEach: "items", VG: NormalVG(),
			Params: counted, UncertainCols: unc}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	bundled := build([]int{2})
	ctx := context.Background()
	const sql = "SELECT SUM(val) FROM t"
	agg := AggQuery{Table: "t", Col: "val", Fn: engine.AggAvg}
	type route func(*Session, ExecOptions) error
	execSQL := func(s *Session, o ExecOptions) error { _, err := s.ExecSQLRange(ctx, sql, o, 1, iters); return err }
	exec := func(s *Session, o ExecOptions) error { _, err := s.Exec(ctx, agg, o); return err }
	explain := func(s *Session, _ ExecOptions) error { _, _, err := s.ExplainSQL(ctx, sql); return err }
	whatIf := func(s *Session, o ExecOptions) error {
		_, err := s.ExecDelta(ctx, agg, o, Delta{Table: "t", MapUnc: func(_ engine.Row, unc []float64) { unc[0] *= 2 }})
		return err
	}
	// The bundled spec's ExecSQLRange runs plan-once, the same spec's
	// without UncertainCols per instance; Exec likewise.
	for _, tc := range []struct {
		name   string
		db     *DB
		routes []route
	}{
		{"bundled", bundled, []route{execSQL, exec, whatIf, explain}},
		{"per instance", build(nil), []route{explain, execSQL, exec}},
	} {
		for _, session := range []string{"a session", "a fresh session"} {
			s := tc.db.NewSession()
			for _, seed := range []uint64{3, 4} {
				for _, r := range tc.routes {
					if err := r(s, ExecOptions{Iterations: iters, Seed: seed, Workers: 2}); err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
				}
			}
			if got := calls.Swap(0); got != tuples {
				t.Fatalf("%s: %s ran Params %d times over two seeds of every route, want once per tuple (%d)", tc.name, session, got, tuples)
			}
		}
	}

	p, err := engine.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bundled.MonteCarlo(ctx, iters, 3, 2, p.Scalar); err != nil {
		t.Fatal(err)
	}
	if got := calls.Swap(0); got != tuples*iters {
		t.Fatalf("MonteCarlo ran Params %d times, want tuples × iterations (%d)", got, tuples*iters)
	}
}

// TestPerInstanceCancelsMidRealization: the loop's context reaches the
// realization, so a request cancelled while an instance is being built
// stops within a few hundred tuples instead of finishing the instance.
func TestPerInstanceCancelsMidRealization(t *testing.T) {
	const tuples = 10_000
	var calls atomic.Int64
	var cancel context.CancelFunc
	db := New(itemsBase(tuples))
	if err := db.AddSpec(&TableSpec{Name: "t", Schema: idWVal, ForEach: "items",
		VG: drawEach(1, func(params engine.Row, r *rng.Stream, vals []float64) error {
			if calls.Add(1) == 10 {
				cancel()
			}
			vals[0] = r.Float64()
			return nil
		})}); err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Iterations: 3, Seed: 1, Workers: 1}
	for name, run := range map[string]func(context.Context) ([]float64, error){
		"ExecSQL": func(ctx context.Context) ([]float64, error) {
			return db.NewSession().ExecSQL(ctx, "SELECT SUM(val) FROM t", opts)
		},
		"Exec": func(ctx context.Context) ([]float64, error) {
			return db.NewSession().Exec(ctx, AggQuery{Table: "t", Col: "val", Fn: engine.AggSum}, opts)
		},
	} {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		calls.Store(0)
		_, err := run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", name, err)
		}
		if later := calls.Load() - 10; later >= 512 {
			t.Fatalf("%s: %d VG calls after the cancelling one; the realization ignored the context", name, later)
		}
	}
}

// TestPlanOnceCancelsMidDraw: the plan-once executor's draws observe
// the context as realizations do, in the window's first draw and in a
// later iteration's vector draw alike.
func TestPlanOnceCancelsMidDraw(t *testing.T) {
	const tuples = 10_000
	var calls atomic.Int64
	var cancel context.CancelFunc
	for _, cancelAt := range []int64{10, tuples + 10} {
		db := New(itemsBase(tuples))
		if err := db.AddSpec(&TableSpec{Name: "t", Schema: idWVal, ForEach: "items", UncertainCols: []int{2},
			VG: drawEach(1, func(params engine.Row, r *rng.Stream, vals []float64) error {
				if calls.Add(1) == cancelAt {
					cancel()
				}
				vals[0] = r.Float64()
				return nil
			})}); err != nil {
			t.Fatal(err)
		}
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		calls.Store(0)
		stats := parallel.NewStats()
		_, err := db.NewSession().ExecSQL(parallel.WithStats(ctx, stats), "SELECT SUM(t.val) FROM t JOIN items ON t.id = items.id",
			ExecOptions{Iterations: 3, Seed: 1, Workers: 1})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at VG call %d: got %v, want context.Canceled", cancelAt, err)
		}
		if later := calls.Load() - cancelAt; later >= 256 {
			t.Fatalf("cancelled at VG call %d: %d VG calls after it; the draw ignored the context", cancelAt, later)
		}
		if stats.Registry().Counter(MetricSQLPlanOnce).Value() != 1 {
			t.Fatalf("the statement did not run plan-once")
		}
	}
}

// TestRealizedRowErrorParity: a row a custom OutputRow assembles is held
// to Insert's rule — same arity and type errors, same int→float
// widening — and both executors report a spec's bad row as the spec's
// fault.
func TestRealizedRowErrorParity(t *testing.T) {
	ctx := context.Background()
	build := func(vgOut ...engine.Value) *DB {
		db := New(itemsBase(3))
		if err := db.AddSpec(&TableSpec{Name: "t", Schema: idWVal, ForEach: "items", UncertainCols: []int{2},
			VG: drawEach(1, func(_ engine.Row, r *rng.Stream, vals []float64) error {
				vals[0] = r.Float64()
				return nil
			}),
			OutputRow: func(outer engine.Row, _ []engine.Value) engine.Row {
				return append(outer.Clone(), vgOut...)
			}}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	outer := engine.Row{engine.Int(0), engine.Float(10)}
	for _, tc := range []struct {
		name  string
		vgOut []engine.Value
		want  error
	}{
		{"short row", nil, engine.ErrArity},
		{"long row", []engine.Value{engine.Float(1), engine.Float(2)}, engine.ErrArity},
		{"Str in a FLOAT column", []engine.Value{engine.Str("x")}, engine.ErrTypeClash},
	} {
		db := build(tc.vgOut...)
		insertErr := engine.MustNewTable("t", idWVal).Insert(append(outer.Clone(), tc.vgOut...))
		if !errors.Is(insertErr, tc.want) {
			t.Fatalf("%s: Insert: %v, want %v", tc.name, insertErr, tc.want)
		}
		_, instErr := db.Instantiate(rng.New(1))
		if want := fmt.Sprintf("%v: %v", ErrBadSpec, insertErr); instErr == nil || instErr.Error() != want {
			t.Fatalf("%s: Instantiate: %v, want %q", tc.name, instErr, want)
		}
		_, sqlErr := db.NewSession().ExecSQL(ctx, "SELECT SUM(val) FROM t", ExecOptions{Iterations: 2, Seed: 1})
		_, bundleErr := db.InstantiateBundledCtx(ctx, 2, 1, 1)
		for route, err := range map[string]error{"Instantiate": instErr, "ExecSQL": sqlErr, "bundles": bundleErr} {
			if !errors.Is(err, ErrBadSpec) || !errors.Is(err, tc.want) {
				t.Fatalf("%s via %s: %v, want %v inside ErrBadSpec", tc.name, route, err, tc.want)
			}
		}
	}

	// An Int in a FLOAT column widens to the Value Insert would store.
	db := build(engine.Int(7))
	stored := engine.MustNewTable("t", idWVal)
	stored.MustInsert(engine.Int(0), engine.Float(10), engine.Int(7))
	inst, err := db.Instantiate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := inst.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tbl.Rows[0][2], stored.Rows[0][2]; got != want || want != engine.Float(7) {
		t.Fatalf("widened cell: realized %#v, Insert stores %#v", got, want)
	}
}
