package mcdb

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
	"modeldata/internal/stats"
)

// sbpFixture builds the §2.1 blood-pressure example: a PATIENTS table,
// a one-row SBP_PARAM table, and the SBP_DATA stochastic table spec.
func sbpFixture(t *testing.T, nPatients int) *DB {
	t.Helper()
	base := engine.NewDatabase()
	patients := engine.MustNewTable("patients", engine.Schema{
		{Name: "pid", Type: engine.TypeInt},
		{Name: "gender", Type: engine.TypeString},
	})
	for i := 0; i < nPatients; i++ {
		g := "F"
		if i%2 == 0 {
			g = "M"
		}
		patients.MustInsert(engine.Int(int64(i)), engine.Str(g))
	}
	base.Put(patients)

	param := engine.MustNewTable("sbp_param", engine.Schema{
		{Name: "mean", Type: engine.TypeFloat},
		{Name: "std", Type: engine.TypeFloat},
	})
	param.MustInsert(engine.Float(120), engine.Float(15))
	base.Put(param)

	db := New(base)
	spec := &TableSpec{
		Name: "sbp_data",
		Schema: engine.Schema{
			{Name: "pid", Type: engine.TypeInt},
			{Name: "gender", Type: engine.TypeString},
			{Name: "sbp", Type: engine.TypeFloat},
		},
		ForEach: "patients",
		Params: func(db *engine.Database, outer engine.Row) (engine.Row, error) {
			p, err := db.Get("sbp_param")
			if err != nil {
				return nil, err
			}
			return p.Rows[0], nil
		},
		VG:            NormalVG(),
		UncertainCols: []int{2},
	}
	if err := db.AddSpec(spec); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInstantiateSBP(t *testing.T) {
	db := sbpFixture(t, 10)
	inst, err := db.Instantiate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := inst.Get("sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 10 {
		t.Fatalf("realized rows = %d", tbl.Len())
	}
	sbps, err := tbl.FloatColumn("sbp")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sbps {
		if v < 30 || v > 220 {
			t.Fatalf("implausible SBP draw %g", v)
		}
	}
	// The deterministic base tables must be present in the instance.
	if _, err := inst.Get("patients"); err != nil {
		t.Fatal(err)
	}
}

func TestMonteCarloNaiveEstimatesMean(t *testing.T) {
	db := sbpFixture(t, 20)
	samples, err := db.MonteCarlo(context.Background(), 400, 7, 0, func(inst *engine.Database) (float64, error) {
		tbl, err := inst.Get("sbp_data")
		if err != nil {
			return 0, err
		}
		return engine.From(tbl).
			GroupBy(nil, engine.Aggregate{Fn: engine.AggAvg, Col: "sbp", As: "m"}).
			ScalarFloat()
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := Summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-120) > 2 {
		t.Fatalf("estimated mean SBP = %g, want ≈ 120 (%v)", est.Mean, est)
	}
}

func TestBundledMatchesNaiveDistribution(t *testing.T) {
	db := sbpFixture(t, 20)
	const iters = 400
	bundles, err := db.InstantiateBundled(iters, 9)
	if err != nil {
		t.Fatal(err)
	}
	bt := bundles["sbp_data"]
	if bt.Len() != 20 || bt.Iters != iters {
		t.Fatalf("bundle shape: %d tuples × %d iters", bt.Len(), bt.Iters)
	}
	bundledMeans, err := bt.Estimate("sbp", engine.AggAvg, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := db.MonteCarlo(context.Background(), iters, 11, 0, func(inst *engine.Database) (float64, error) {
		tbl, _ := inst.Get("sbp_data")
		return engine.From(tbl).
			GroupBy(nil, engine.Aggregate{Fn: engine.AggAvg, Col: "sbp", As: "m"}).
			ScalarFloat()
	})
	if err != nil {
		t.Fatal(err)
	}
	mb, mn := stats.Mean(bundledMeans), stats.Mean(naive)
	if math.Abs(mb-mn) > 2 {
		t.Fatalf("bundled mean %g vs naive mean %g", mb, mn)
	}
	vb, vn := stats.Variance(bundledMeans), stats.Variance(naive)
	if vb <= 0 || vn <= 0 || vb/vn > 3 || vn/vb > 3 {
		t.Fatalf("variance mismatch: bundled %g vs naive %g", vb, vn)
	}
}

func TestBundleDeterministicForSeed(t *testing.T) {
	db := sbpFixture(t, 5)
	b1, err := db.InstantiateBundled(10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := db.InstantiateBundled(10, 42)
	if err != nil {
		t.Fatal(err)
	}
	u1, u2 := b1["sbp_data"].Unc, b2["sbp_data"].Unc
	for i := range u1 {
		for it := 0; it < 10; it++ {
			if u1[i][0][it] != u2[i][0][it] {
				t.Fatal("bundled instantiation not deterministic")
			}
		}
	}
}

func TestFilterDetAndUncertainPredicate(t *testing.T) {
	db := sbpFixture(t, 30)
	bundles, err := db.InstantiateBundled(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	bt := bundles["sbp_data"]
	males := bt.FilterDet(func(det engine.Row) bool { return det[1].AsString() == "M" })
	if males.Len() != 15 {
		t.Fatalf("male tuples = %d", males.Len())
	}
	// Count hypertensive males (SBP > 140) per iteration.
	counts, err := males.Estimate("sbp", engine.AggCount, func(det engine.Row, unc []float64) bool {
		return unc[0] > 140
	})
	if err != nil {
		t.Fatal(err)
	}
	// P(SBP > 140) with N(120, 15) ≈ 0.0912; expected count ≈ 1.37.
	want := 15 * (1 - rng.NormalCDF((140.0-120)/15))
	if got := stats.Mean(counts); math.Abs(got-want) > 0.5 {
		t.Fatalf("mean hypertensive count = %g, want ≈ %g", got, want)
	}
}

// detTypeFixture is a stochastic table whose OutputRow also emits a
// deterministic attribute: weight FLOAT, for which it returns first,
// beside the VG's uncertain val.
func detTypeFixture(t *testing.T, first engine.Value) *DB {
	t.Helper()
	base := engine.NewDatabase()
	items := engine.MustNewTable("items", engine.Schema{{Name: "id", Type: engine.TypeInt}})
	for i := 0; i < 3; i++ {
		items.MustInsert(engine.Int(int64(i)))
	}
	base.Put(items)
	db := New(base)
	if err := db.AddSpec(&TableSpec{
		Name: "w",
		Schema: engine.Schema{
			{Name: "id", Type: engine.TypeInt},
			{Name: "weight", Type: engine.TypeFloat},
			{Name: "val", Type: engine.TypeFloat},
		},
		ForEach: "items",
		VG: drawEach(1, func(params engine.Row, r *rng.Stream, vals []float64) error {
			vals[0] = r.Normal(0, 1)
			return nil
		}),
		OutputRow: func(outer engine.Row, vgOut []engine.Value) engine.Row {
			return engine.Row{outer[0], first, vgOut[0]}
		},
		UncertainCols: []int{2},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDetAttributesConformToSchema: deterministic attributes are typed
// by Insert's rule on both executors — an int widens into a FLOAT
// column to the same Value, anything else is ErrTypeClash.
func TestDetAttributesConformToSchema(t *testing.T) {
	ctx := context.Background()
	db := detTypeFixture(t, engine.Int(2))
	bundles, err := db.InstantiateBundledCtx(ctx, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bt := bundles["w"]
	inst, err := db.Instantiate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := inst.Get("w")
	for ti := range bt.Det {
		want := engine.Float(2)
		if bt.Det[ti][1] != want || tbl.Rows[ti][1] != want {
			t.Fatalf("tuple %d weight: bundle %#v, instance %#v, want %#v", ti, bt.Det[ti][1], tbl.Rows[ti][1], want)
		}
		if bt.Det[ti][0] != tbl.Rows[ti][0] {
			t.Fatalf("tuple %d id: bundle %#v, instance %#v", ti, bt.Det[ti][0], tbl.Rows[ti][0])
		}
	}

	bad := detTypeFixture(t, engine.Str("heavy"))
	if _, err := bad.Instantiate(rng.New(1)); !errors.Is(err, engine.ErrTypeClash) {
		t.Fatalf("Instantiate: got %v, want ErrTypeClash", err)
	}
	if _, err := bad.InstantiateBundledCtx(ctx, 4, 1, 0); !errors.Is(err, engine.ErrTypeClash) || !errors.Is(err, ErrBadSpec) {
		t.Fatalf("InstantiateBundledCtx: got %v, want ErrTypeClash in ErrBadSpec", err)
	}
}

// constVG draws v for every realization, one value per call of r.
func constVG(v float64) VG {
	return drawEach(1, func(_ engine.Row, r *rng.Stream, vals []float64) error {
		r.Float64()
		vals[0] = v
		return nil
	})
}

// TestVGCellsFollowSchema: under the default OutputRow a VG value takes
// its column's type — an integral value in an Int column is an exact
// Int, a fractional one is ErrTypeClash — on every executor and through
// a delta's VG, and a VG value bound for a String column, or a VG whose
// width does not fill the schema, is the spec's fault before any draw.
func TestVGCellsFollowSchema(t *testing.T) {
	ctx := context.Background()
	idWN := append(idWVal[:2:2], engine.Column{Name: "n", Type: engine.TypeInt})
	build := func(schema engine.Schema, vg VG, unc []int) *DB {
		db := New(itemsBase(3))
		if err := db.AddSpec(&TableSpec{Name: "t", Schema: schema, ForEach: "items", VG: vg, UncertainCols: unc}); err != nil {
			t.Fatal(err)
		}
		return db
	}

	inst, err := build(idWN, constVG(3), nil).Instantiate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := inst.Get("t")
	bundles, err := build(idWN, constVG(3), []int{2}).InstantiateBundledCtx(ctx, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	detN, err := build(idWN, constVG(3), []int{1}).InstantiateBundledCtx(ctx, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for ti, row := range tbl.Rows {
		if row[2] != engine.Int(3) || detN["t"].Det[ti][2] != engine.Int(3) {
			t.Fatalf("tuple %d: instance %#v, bundle det %#v, want Int(3)", ti, row[2], detN["t"].Det[ti][2])
		}
		if u := bundles["t"].Unc[ti][0]; !slices.Equal(u, []float64{3, 3, 3, 3}) {
			t.Fatalf("tuple %d: bundle draws %v, want 3 at every iteration", ti, u)
		}
	}

	for name, tc := range map[string]struct {
		db   *DB
		want error
	}{
		"2.5 in an Int column":          {build(idWN, constVG(2.5), []int{2}), engine.ErrTypeClash},
		"a VG value in a String column": {build(append(idWVal[:2:2], engine.Column{Name: "s", Type: engine.TypeString}), constVG(1), []int{1}), engine.ErrTypeClash},
		"width 2 over one column":       {build(idWVal, drawEach(2, func(_ engine.Row, r *rng.Stream, vals []float64) error { return nil }), []int{2}), engine.ErrArity},
	} {
		_, instErr := tc.db.Instantiate(rng.New(1))
		_, bundleErr := tc.db.InstantiateBundledCtx(ctx, 4, 1, 1)
		for route, err := range map[string]error{"Instantiate": instErr, "bundles": bundleErr} {
			if !errors.Is(err, ErrBadSpec) || !errors.Is(err, tc.want) {
				t.Errorf("%s via %s: %v, want %v inside ErrBadSpec", name, route, err, tc.want)
			}
		}
	}
}

// TestDrawsPerTuple: the bundle executor calls a VG's Draw once per
// tuple, for all its iterations at once; the per-instance executors once
// per tuple-iteration, whatever the route.
func TestDrawsPerTuple(t *testing.T) {
	const tuples, iters = 7, 5
	ctx := context.Background()
	var draws, realizations atomic.Int64
	normal := NormalVG()
	db := New(itemsBase(tuples))
	if err := db.AddSpec(&TableSpec{Name: "t", Schema: idWVal, ForEach: "items", Params: wStd, UncertainCols: []int{2},
		VG: VG{Width: 1, Draw: func(params engine.Row, r *rng.Stream, out [][]float64) error {
			draws.Add(1)
			realizations.Add(int64(len(out[0])))
			return normal.Draw(params, r, out)
		}}}); err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Iterations: iters, Seed: 2, Workers: 2}
	for _, tc := range []struct {
		route     string
		run       func() error
		wantDraws int64
	}{
		{"bundles", func() error {
			_, err := db.NewSession().Exec(ctx, AggQuery{Table: "t", Col: "val", Fn: engine.AggSum}, opts)
			return err
		}, tuples},
		{"plan-once SQL", func() error {
			_, err := db.NewSession().ExecSQL(ctx, "SELECT SUM(val) FROM t", opts)
			return err
		}, tuples * iters},
		{"per-instance SQL", func() error {
			_, err := db.NewSession().ExecSQL(ctx, "SELECT SUM(t.val) FROM t JOIN t ON t.id = t.id", opts)
			return err
		}, tuples * iters},
	} {
		draws.Store(0)
		realizations.Store(0)
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.route, err)
		}
		if d, n := draws.Load(), realizations.Load(); d != tc.wantDraws || n != tuples*iters {
			t.Errorf("%s: %d Draw calls drawing %d realizations, want %d calls drawing %d", tc.route, d, n, tc.wantDraws, tuples*iters)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	db := New(nil)
	if err := db.AddSpec(&TableSpec{}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("got %v", err)
	}
	err := db.AddSpec(&TableSpec{
		Name:          "x",
		Schema:        engine.Schema{{Name: "a", Type: engine.TypeFloat}},
		VG:            NormalVG(),
		UncertainCols: []int{5},
	})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("got %v", err)
	}
	for _, vg := range []VG{{Width: 1}, {Width: 0, Draw: NormalVG().Draw}} {
		if err := db.AddSpec(&TableSpec{Name: "x", Schema: engine.Schema{{Name: "a", Type: engine.TypeFloat}}, VG: vg}); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("VG of width %d, Draw set %v: got %v", vg.Width, vg.Draw != nil, err)
		}
	}
	err = db.AddSpec(&TableSpec{
		Name:          "x",
		Schema:        engine.Schema{{Name: "a", Type: engine.TypeFloat}},
		VG:            NormalVG(),
		UncertainCols: []int{0, 0},
	})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("a column listed twice: got %v", err)
	}
	if _, err := db.Spec("missing"); !errors.Is(err, ErrNoSpec) {
		t.Fatalf("got %v", err)
	}
}

func TestNoForEachSpecRunsOnce(t *testing.T) {
	db := New(nil)
	err := db.AddSpec(&TableSpec{
		Name:          "single",
		Schema:        engine.Schema{{Name: "v", Type: engine.TypeFloat}},
		VG:            distVG(rng.UniformDist{Lo: 0, Hi: 1}),
		UncertainCols: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := db.Instantiate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := inst.Get("single")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("rows = %d, want 1", tbl.Len())
	}
}

func TestMonteCarloNaiveBadIters(t *testing.T) {
	db := sbpFixture(t, 2)
	if _, err := db.MonteCarlo(context.Background(), 0, 1, 0, nil); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("iters=0: got %v, want ErrBadQuery", err)
	}
	if _, err := db.InstantiateBundled(0, 1); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("bundled iters=0: got %v, want ErrBadQuery", err)
	}
}

func TestBundleRequiresUncertainCols(t *testing.T) {
	db := New(nil)
	if err := db.AddSpec(&TableSpec{
		Name:   "nouc",
		Schema: engine.Schema{{Name: "v", Type: engine.TypeFloat}},
		VG:     distVG(rng.UniformDist{Lo: 0, Hi: 1}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InstantiateBundled(5, 1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("got %v", err)
	}
}

func TestVGLibrary(t *testing.T) {
	r := rng.New(5)
	t.Run("ParamErrors", func(t *testing.T) {
		out := [][]float64{make([]float64, 3)}
		if err := NormalVG().Draw(nil, r, out); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("missing params accepted: %v", err)
		}
		if err := NormalVG().Draw(engine.Row{engine.Float(0), engine.Float(-1)}, r, out); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("negative std accepted: %v", err)
		}
	})
	t.Run("RunIsOneAtATime", func(t *testing.T) {
		params := engine.Row{engine.Float(3), engine.Float(2)}
		run, one := [][]float64{make([]float64, 9)}, [][]float64{make([]float64, 1)}
		ra, rb := rng.New(6), rng.New(6)
		if err := NormalVG().Draw(params, ra, run); err != nil {
			t.Fatal(err)
		}
		for j, want := range run[0] {
			if err := NormalVG().Draw(params, rb, one); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(one[0][0]) != math.Float64bits(want) {
				t.Fatalf("realization %d: %v one at a time, %v in a run", j, one[0][0], want)
			}
		}
		if ra.Uint64() != rb.Uint64() {
			t.Fatal("a run and one-at-a-time draws leave the stream in different places")
		}
	})
}

func TestSummarizeAndRisk(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatal("empty Summarize")
	}
	r := rng.New(8)
	samples := rng.SampleN(rng.NormalDist{Mu: 50, Sigma: 5}, r, 4000)
	est, err := Summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-50) > 0.5 || math.Abs(est.Quantiles[0.5]-50) > 0.5 {
		t.Fatalf("estimate %v", est)
	}
	if est.String() == "" {
		t.Fatal("empty String")
	}
	q, err := RiskQuantile(samples, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	want := 50 + 5*rng.NormalQuantile(0.999)
	if math.Abs(q-want) > 2.5 {
		t.Fatalf("risk quantile = %g, want ≈ %g", q, want)
	}
	if _, err := RiskQuantile(nil, 0.5); !errors.Is(err, ErrNoSamples) {
		t.Fatal("empty RiskQuantile")
	}
	p, err := ThresholdProbability([]float64{1, 2, 3, 4}, 2.5)
	if err != nil || p != 0.5 {
		t.Fatalf("p = %g err = %v", p, err)
	}
}

// TestSessionExecSQL checks the prepared-SQL path: an arbitrary join
// SELECT runs once per instantiation, bit-identically at any worker
// count, and agrees with the equivalent declarative AggQuery.
func TestSessionExecSQL(t *testing.T) {
	db := sbpFixture(t, 12)
	s := db.NewSession()
	const sql = "SELECT AVG(sbp_data.sbp) " +
		"FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid " +
		"WHERE patients.gender = 'M'"
	opts := ExecOptions{Iterations: 20, Seed: 5}
	var ref []float64
	for _, w := range []int{1, 2, 8} {
		opts.Workers = w
		got, err := s.ExecSQL(context.Background(), sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d iter %d: %v vs %v", w, i, got[i], ref[i])
			}
		}
	}

	// The declarative path over the spec run per instance answers the
	// same question; the samples must match exactly (same seed → same
	// instantiations → same rows).
	spec, _ := db.Spec("sbp_data")
	perInstance := *spec
	perInstance.UncertainCols = nil
	twin := New(db.Base)
	if err := twin.AddSpec(&perInstance); err != nil {
		t.Fatal(err)
	}
	agg, err := twin.NewSession().Exec(context.Background(), AggQuery{
		Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg,
		WhereDet: func(r engine.Row) bool { return r[1].AsString() == "M" },
	}, ExecOptions{Iterations: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if agg[i] != ref[i] {
			t.Fatalf("iter %d: SQL %v vs AggQuery %v", i, ref[i], agg[i])
		}
	}
}

// TestSessionExplainSQL checks plan rendering through the session.
func TestSessionExplainSQL(t *testing.T) {
	db := sbpFixture(t, 12)
	s := db.NewSession()
	const sql = "SELECT COUNT(sbp_data.pid) " +
		"FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid " +
		"WHERE patients.gender = 'F'"
	text, data, err := s.ExplainSQL(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"join sbp_data.pid = patients.pid", "scan sbp_data rows=12", "filter gender = 'F'"} {
		if !strings.Contains(text, want) {
			t.Fatalf("ExplainSQL missing %q:\n%s", want, text)
		}
	}
	if len(data) == 0 || data[0] != '{' {
		t.Fatalf("ExplainSQL JSON = %q", data)
	}

	// Prepared is cached per statement text.
	p1, err := s.Prepared(sql)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Prepared(sql)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Prepared did not cache the statement")
	}
}

// distVG draws one value of d per tuple and ignores the parameter row.
func distVG(d rng.Dist) VG {
	return drawEach(1, func(_ engine.Row, r *rng.Stream, vals []float64) error {
		vals[0] = d.Sample(r)
		return nil
	})
}

// drawEach is a VG of the given width that draws each realization with
// one call of f, which fills vals with its values in column order.
func drawEach(width int, f func(params engine.Row, r *rng.Stream, vals []float64) error) VG {
	return VG{Width: width, Draw: func(params engine.Row, r *rng.Stream, out [][]float64) error {
		vals := make([]float64, width)
		for j := range out[0] {
			if err := f(params, r, vals); err != nil {
				return err
			}
			for k, v := range vals {
				out[k][j] = v
			}
		}
		return nil
	}}
}
