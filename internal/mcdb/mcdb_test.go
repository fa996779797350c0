package mcdb

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
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

// perInstanceTwin returns a database over db's base tables whose specs
// are db's with UncertainCols cleared, so Session.Exec runs them per
// instance — the reference executor, on the instantiations db itself
// produces for a seed.
func perInstanceTwin(t *testing.T, db *DB) *DB {
	t.Helper()
	twin := New(db.Base)
	for _, sp := range db.specs {
		c := *sp
		c.UncertainCols = nil
		if err := twin.AddSpec(&c); err != nil {
			t.Fatal(err)
		}
	}
	return twin
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

// detTypeFixture is a stochastic table whose VG also emits a
// deterministic attribute: weight FLOAT, for which the VG returns vg's
// first value, beside the uncertain val.
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
		VG: func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
			return append(out, first, engine.Float(r.Normal(0, 1))), nil
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
	// A delta's VG goes through the same check when tuples re-sample.
	_, err = db.NewSession().ExecDelta(ctx, AggQuery{Table: "w", Col: "val", Fn: engine.AggSum},
		ExecOptions{Iterations: 4, Seed: 1}, Delta{Table: "w", VG: func(_ engine.Row, _ *rng.Stream, out []engine.Value) ([]engine.Value, error) {
			return append(out, engine.Str("heavy"), engine.Float(0)), nil
		}})
	if !errors.Is(err, engine.ErrTypeClash) || !errors.Is(err, ErrBadSpec) {
		t.Fatalf("ExecDelta: got %v, want ErrTypeClash in ErrBadSpec", err)
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
	if _, err := db.Spec("missing"); !errors.Is(err, ErrNoSpec) {
		t.Fatalf("got %v", err)
	}
}

func TestNoForEachSpecRunsOnce(t *testing.T) {
	db := New(nil)
	err := db.AddSpec(&TableSpec{
		Name:          "single",
		Schema:        engine.Schema{{Name: "v", Type: engine.TypeFloat}},
		VG:            DistVG(rng.UniformDist{Lo: 0, Hi: 1}),
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
	if _, err := db.MonteCarlo(context.Background(), 0, 1, 0, nil); err == nil {
		t.Fatal("iters=0 accepted")
	}
	if _, err := db.InstantiateBundled(0, 1); err == nil {
		t.Fatal("bundled iters=0 accepted")
	}
}

func TestBundleRequiresUncertainCols(t *testing.T) {
	db := New(nil)
	if err := db.AddSpec(&TableSpec{
		Name:   "nouc",
		Schema: engine.Schema{{Name: "v", Type: engine.TypeFloat}},
		VG:     DistVG(rng.UniformDist{Lo: 0, Hi: 1}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InstantiateBundled(5, 1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("got %v", err)
	}
}

func TestVGLibrary(t *testing.T) {
	r := rng.New(5)
	t.Run("BackwardWalk", func(t *testing.T) {
		vg := BackwardWalkVG(5)
		params := engine.Row{engine.Float(100), engine.Float(0.001), engine.Float(0.01)}
		sum := 0.0
		for i := 0; i < 2000; i++ {
			vals, err := vg(params, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum += vals[0].AsFloat()
		}
		mean := sum / 2000
		// Five backward steps of ≈0.1% drift: slightly below 100.
		if mean < 90 || mean > 105 {
			t.Fatalf("backward walk mean = %g", mean)
		}
	})
	t.Run("OptionPayoff", func(t *testing.T) {
		vg := OptionPayoffVG(5, 100)
		params := engine.Row{engine.Float(100), engine.Float(0), engine.Float(0.02)}
		neg := 0
		pos := 0
		for i := 0; i < 500; i++ {
			vals, err := vg(params, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := vals[0].AsFloat()
			if p < 0 {
				neg++
			}
			if p > 0 {
				pos++
			}
		}
		if neg > 0 {
			t.Fatalf("%d negative payoffs", neg)
		}
		if pos == 0 {
			t.Fatal("no positive payoffs — vol did nothing")
		}
	})
	t.Run("BayesianDemand", func(t *testing.T) {
		vg := BayesianDemandVG(0) // no price effect: posterior mean only
		// Prior Gamma(2, rate 1); data: 18 purchases over 8 periods →
		// posterior Gamma(20, rate 9), mean λ = 20/9 ≈ 2.22.
		params := engine.Row{
			engine.Float(2), engine.Float(1),
			engine.Float(18), engine.Float(8), engine.Float(0),
		}
		sum := 0.0
		const n = 5000
		for i := 0; i < n; i++ {
			vals, err := vg(params, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum += vals[0].AsFloat()
		}
		mean := sum / n
		if math.Abs(mean-20.0/9) > 0.15 {
			t.Fatalf("posterior predictive mean = %g, want ≈ %g", mean, 20.0/9)
		}
	})
	t.Run("ParamErrors", func(t *testing.T) {
		for _, vg := range []VG{NormalVG(), PoissonVG(), BackwardWalkVG(1), OptionPayoffVG(1, 0), BayesianDemandVG(0)} {
			if _, err := vg(nil, r, nil); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("missing params accepted: %v", err)
			}
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
}

func TestThresholdQuery(t *testing.T) {
	// "Which regions decline more than 2% with ≥ 50% probability?"
	perGroup := map[string][]float64{
		"east":  {0.03, 0.01, 0.04, 0.05}, // 3/4 above 0.02
		"west":  {0.01, 0.00, 0.03, 0.01}, // 1/4 above
		"south": {0.025, 0.021, 0.01, 0.03},
	}
	groups, err := ThresholdQuery(perGroup, 0.02, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(groups)
	if len(groups) != 2 || groups[0] != "east" || groups[1] != "south" {
		t.Fatalf("groups = %v", groups)
	}
	if _, err := ThresholdQuery(map[string][]float64{"x": nil}, 0, 0); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("got %v", err)
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

	// The declarative path answers the same question; the samples must
	// match exactly (same seed → same instantiations → same rows).
	agg, err := perInstanceTwin(t, db).NewSession().Exec(context.Background(), AggQuery{
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
