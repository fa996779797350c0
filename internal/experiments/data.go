package experiments

import (
	"context"

	"fmt"
	"math"
	"time"

	"modeldata/internal/composite"
	"modeldata/internal/engine"
	"modeldata/internal/indemics"
	"modeldata/internal/mapreduce"
	"modeldata/internal/mcdb"
	"modeldata/internal/pdesmas"
	"modeldata/internal/rng"
	"modeldata/internal/sgd"
	"modeldata/internal/simsql"
	"modeldata/internal/stats"
	"modeldata/internal/timeseries"
)

func init() {
	register("E1", runE1)
	register("E2", runE2)
	register("E3", runE3)
	register("E4", runE4)
	register("E5", runE5)
	register("E6", runE6)
	register("E7", runE7)
}

// SBPDatabase builds the §2.1 blood-pressure MCDB fixture with the
// given patient count.
func SBPDatabase(nPatients int) (*mcdb.DB, error) {
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
	// SBP_PARAM is derived per VG invocation by an aggregation query
	// over a measurement-history table — "in general a VG function can
	// be parametrized using a general SQL query over the set of all
	// non-random relations" (§2.1). Running this query once per tuple
	// (bundled) instead of once per tuple per iteration (naive) is the
	// tuple-bundle saving experiment E1 measures.
	hist := engine.MustNewTable("sbp_history", engine.Schema{
		{Name: "reading", Type: engine.TypeFloat},
	})
	hr := rng.New(7)
	for i := 0; i < 2000; i++ {
		hist.MustInsert(engine.Float(hr.Normal(120, 15)))
	}
	base.Put(hist)

	db := mcdb.New(base)
	err := db.AddSpec(&mcdb.TableSpec{
		Name: "sbp_data",
		Schema: engine.Schema{
			{Name: "pid", Type: engine.TypeInt},
			{Name: "gender", Type: engine.TypeString},
			{Name: "sbp", Type: engine.TypeFloat},
		},
		ForEach: "patients",
		Params: func(db *engine.Database, outer engine.Row) (engine.Row, error) {
			h, err := db.Get("sbp_history")
			if err != nil {
				return nil, err
			}
			readings, err := h.FloatColumn("reading")
			if err != nil {
				return nil, err
			}
			return engine.Row{
				engine.Float(stats.Mean(readings)),
				engine.Float(stats.StdDev(readings)),
			}, nil
		},
		VG:            mcdb.NormalVG(),
		UncertainCols: []int{2},
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// runE1 compares tuple-bundle execution against naive per-iteration
// re-execution of the SBP query.
func runE1(ctx context.Context, seed uint64) (Result, error) {
	const patients = 300
	const iters = 300
	db, err := SBPDatabase(patients)
	if err != nil {
		return Result{}, err
	}
	t0 := time.Now() //lint:allow rngsource wall-clock timing reported as a measurement, never fed into results
	bundles, err := db.InstantiateBundledCtx(ctx, iters, seed, 0)
	if err != nil {
		return Result{}, err
	}
	bundled, err := bundles["sbp_data"].Estimate("sbp", engine.AggAvg, nil)
	if err != nil {
		return Result{}, err
	}
	bundleTime := time.Since(t0)

	t0 = time.Now() //lint:allow rngsource wall-clock timing reported as a measurement, never fed into results
	naive, err := db.MonteCarlo(ctx, iters, seed+1, 0, func(inst *engine.Database) (float64, error) {
		tbl, err := inst.Get("sbp_data")
		if err != nil {
			return 0, err
		}
		return engine.From(tbl).
			GroupBy(nil, engine.Aggregate{Fn: engine.AggAvg, Col: "sbp", As: "m"}).
			ScalarFloat()
	})
	if err != nil {
		return Result{}, err
	}
	naiveTime := time.Since(t0)

	mb, mn := stats.Mean(bundled), stats.Mean(naive)
	speedup := float64(naiveTime) / float64(bundleTime)
	res := Result{
		ID:    "E1",
		Title: "MCDB tuple bundles vs naive re-execution",
		Paper: "§2.1: MCDB executes a query plan once over tuple bundles for acceptable performance",
		Shape: "bundled execution is substantially faster with statistically identical estimates",
		Rows: []Row{
			{Name: "patients × iterations", Value: float64(patients * iters), Unit: ""},
			{Name: "bundled wall time", Value: bundleTime.Seconds(), Unit: "s"},
			{Name: "naive wall time", Value: naiveTime.Seconds(), Unit: "s"},
			{Name: "speedup", Value: speedup, Unit: "×"},
			{Name: "bundled mean SBP", Value: mb, Unit: "mmHg"},
			{Name: "naive mean SBP", Value: mn, Unit: "mmHg"},
		},
	}
	res.Verdict = speedup > 1.5 && math.Abs(mb-mn) < 1 && math.Abs(mb-120) < 1
	return res, nil
}

// runE2 exercises SimSQL's database-valued Markov chain plus the
// ABS-as-self-join step.
func runE2(ctx context.Context, seed uint64) (Result, error) {
	// Part 1: DB-valued chain with cross-table recursion A→B→A'.
	schema := engine.Schema{{Name: "v", Type: engine.TypeFloat}}
	oneRow := func(v float64) (*engine.Table, error) {
		t, err := engine.NewTable("x", schema)
		if err != nil {
			return nil, err
		}
		err = t.Insert(engine.Row{engine.Float(v)})
		return t, err
	}
	chain := &simsql.Chain{Defs: []simsql.TableDef{
		{Name: "a", Generate: func(state *engine.Database, r *rng.Stream) (*engine.Table, error) {
			base := 0.0
			if pb, err := state.Get(simsql.PrevName("b")); err == nil {
				base = pb.Rows[0][0].AsFloat()
			}
			return oneRow(base + 1 + r.Normal(0, 0.01))
		}},
		{Name: "b", Generate: func(state *engine.Database, r *rng.Stream) (*engine.Table, error) {
			a, err := state.Get("a")
			if err != nil {
				return nil, err
			}
			return oneRow(2 * a.Rows[0][0].AsFloat())
		}},
	}}
	const steps = 50
	means, err := chain.MonteCarloCtx(ctx, steps, 30, seed, 0, func(db *engine.Database) (float64, error) {
		b, err := db.Get("b")
		if err != nil {
			return 0, err
		}
		return b.Rows[0][0].AsFloat(), nil
	})
	if err != nil {
		return Result{}, err
	}
	// Deterministic recursion (noise aside): b[i] = 2(b[i−1]+1) ⇒
	// b[i] = 2^{i+2} − 2.
	wantFinal := math.Pow(2, steps+2) - 2
	relErr := math.Abs(means[steps]-wantFinal) / wantFinal

	// Part 2: ABS self-join step scaling (agents per step).
	r := rng.New(seed + 7)
	agents := engine.MustNewTable("agents", engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "pos", Type: engine.TypeFloat},
	})
	const nAgents = 2000
	for i := 0; i < nAgents; i++ {
		agents.MustInsert(engine.Int(int64(i)), engine.Float(r.Float64()*50))
	}
	step := simsql.ABSStep{
		PartKey:    func(row engine.Row) string { return fmt.Sprintf("%d", int(row[1].AsFloat())) },
		Near:       func(a, b engine.Row) bool { return true },
		Accumulate: func(acc float64, b engine.Row) float64 { return acc + b[1].AsFloat() },
		Update: func(a engine.Row, acc float64, n int, r *rng.Stream) engine.Row {
			pos := a[1].AsFloat()
			if n > 0 {
				pos += 0.5 * (acc/float64(n) - pos)
			}
			return engine.Row{a[0], engine.Float(pos)}
		},
		Workers: 8,
	}
	t0 := time.Now() //lint:allow rngsource wall-clock timing reported as a measurement, never fed into results
	next, err := step.Apply(ctx, agents, seed)
	if err != nil {
		return Result{}, err
	}
	absTime := time.Since(t0)
	posBefore, err := agents.FloatColumn("pos")
	if err != nil {
		return Result{}, err
	}
	posAfter, err := next.FloatColumn("pos")
	if err != nil {
		return Result{}, err
	}

	res := Result{
		ID:    "E2",
		Title: "SimSQL database-valued Markov chain + ABS self-join",
		Paper: "§2.1: versioned recursive stochastic tables generate D[0..n]; an ABS step is a (partitioned) self-join",
		Shape: "E[D[i]] follows the recursion exactly; self-join step contracts within-cell variance",
		Rows: []Row{
			{Name: "chain steps", Value: steps, Unit: ""},
			{Name: "final E[b] relative error", Value: relErr, Unit: "fraction"},
			{Name: "ABS agents", Value: nAgents, Unit: ""},
			{Name: "ABS step wall time", Value: absTime.Seconds(), Unit: "s"},
			{Name: "variance before step", Value: stats.Variance(posBefore), Unit: ""},
			{Name: "variance after step", Value: stats.Variance(posAfter), Unit: ""},
		},
	}
	res.Verdict = relErr < 0.01 && stats.Variance(posAfter) < stats.Variance(posBefore)
	return res, nil
}

// runE3 compares the Thomas solver, sequential SGD, and DSGD on the
// cubic-spline constant system, reporting residuals and shuffle bytes.
func runE3(ctx context.Context, seed uint64) (Result, error) {
	const m = 20000
	ts := make([]float64, m+1)
	vs := make([]float64, m+1)
	for i := range ts {
		ts[i] = float64(i) * 0.01
		vs[i] = math.Sin(ts[i]/10) + 0.3*math.Cos(ts[i]/3)
	}
	series, err := timeseries.FromSlices("massive", ts, vs)
	if err != nil {
		return Result{}, err
	}
	tri, b, err := timeseries.SplineSystem(series)
	if err != nil {
		return Result{}, err
	}
	exact, err := tri.SolveThomas(b)
	if err != nil {
		return Result{}, err
	}
	opts := sgd.Options{Epochs: 60, Kaczmarz: true, Seed: seed, Workers: 4}
	xSGD, sgdStats, err := sgd.Solve(tri, b, opts)
	if err != nil {
		return Result{}, err
	}
	xDSGD, dsgdStats, err := sgd.SolveDistributedCtx(ctx, tri, b, opts)
	if err != nil {
		return Result{}, err
	}
	maxErr := func(x []float64) float64 {
		m := 0.0
		for i := range x {
			if d := math.Abs(x[i] - exact[i]); d > m {
				m = d
			}
		}
		return m
	}
	shuffleRatio := float64(dsgdStats.ShuffleBytes) / float64(sgdStats.ShuffleBytes)
	res := Result{
		ID:    "E3",
		Title: "Cubic spline constants via DSGD on MapReduce",
		Paper: "§2.2: stratified DSGD converges to the tridiagonal solution with negligible shuffling",
		Shape: "DSGD ≈ Thomas; DSGD shuffle ≪ full-iterate SGD shuffle",
		Rows: []Row{
			{Name: "system size m", Value: float64(tri.N()), Unit: "rows"},
			{Name: "SGD max error vs Thomas", Value: maxErr(xSGD), Unit: ""},
			{Name: "DSGD max error vs Thomas", Value: maxErr(xDSGD), Unit: ""},
			{Name: "SGD shuffle", Value: float64(sgdStats.ShuffleBytes), Unit: "B"},
			{Name: "DSGD shuffle", Value: float64(dsgdStats.ShuffleBytes), Unit: "B"},
			{Name: "DSGD/SGD shuffle ratio", Value: shuffleRatio, Unit: ""},
			{Name: "DSGD stratum switches", Value: float64(dsgdStats.StratumSwaps), Unit: ""},
		},
	}
	res.Verdict = maxErr(xDSGD) < 1e-6 && shuffleRatio < 0.1
	return res, nil
}

// runE4 runs Splash-style time alignment in both directions on the
// MapReduce runtime.
func runE4(ctx context.Context, seed uint64) (Result, error) {
	f := func(t float64) float64 { return math.Sin(t/8) + 0.2*math.Cos(t/2) }
	// Source model output: tick 1 over [0, 500].
	n := 501
	ts := make([]float64, n)
	vs := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i)
		vs[i] = f(ts[i])
	}
	fine, err := timeseries.FromSlices("source", ts, vs)
	if err != nil {
		return Result{}, err
	}
	// Direction 1: coarser target (tick 10) ⇒ aggregation.
	var coarseTicks []float64
	for t := 0.0; t <= 500; t += 10 {
		coarseTicks = append(coarseTicks, t)
	}
	agg, class1, err := timeseries.Align(fine, coarseTicks, timeseries.InterpLinear, timeseries.AggMean)
	if err != nil {
		return Result{}, err
	}
	// Direction 2: finer target (tick 0.25) ⇒ spline interpolation on
	// MapReduce windows.
	sp, err := timeseries.NewSpline(fine)
	if err != nil {
		return Result{}, err
	}
	// Keep targets away from the endpoints: the natural-boundary
	// condition (σ₀ = σ_m = 0) costs accuracy where f″ ≠ 0.
	var fineTicks []float64
	for t := 5.0; t < 495; t += 0.25 {
		fineTicks = append(fineTicks, t)
	}
	interp, mrStats, err := timeseries.ParallelInterpolateCtx(ctx, sp, fineTicks, mapreduce.Config{Mappers: 8, Reducers: 4})
	if err != nil {
		return Result{}, err
	}
	maxInterpErr := 0.0
	for _, p := range interp.Points {
		if e := math.Abs(p.V - f(p.T)); e > maxInterpErr {
			maxInterpErr = e
		}
	}
	res := Result{
		ID:    "E4",
		Title: "Time alignment between models at scale",
		Paper: "§2.2: aggregation for coarser targets, interpolation for finer; windows processed in parallel, assembled by parallel sort",
		Shape: "classes auto-detected; window-parallel spline matches the target function",
		Rows: []Row{
			{Name: "aggregation class detected", Value: b2f(class1 == timeseries.AlignAggregation), Unit: "bool"},
			{Name: "aggregated points", Value: float64(agg.Len()), Unit: ""},
			{Name: "interpolation targets", Value: float64(interp.Len()), Unit: ""},
			{Name: "MapReduce windows (splits)", Value: float64(mrStats.InputSplits), Unit: ""},
			{Name: "MapReduce shuffle", Value: float64(mrStats.ShuffleBytes), Unit: "B"},
			{Name: "max spline error", Value: maxInterpErr, Unit: ""},
		},
	}
	res.Verdict = class1 == timeseries.AlignAggregation && maxInterpErr < 1e-3 &&
		interp.Len() == len(fineTicks)
	return res, nil
}

// runE5 sweeps the (c1/c2, V1/V2) scenario grid of §2.3 and verifies
// α* maximizes efficiency in every scenario.
func runE5(_ context.Context, _ uint64) (Result, error) { //lint:allow ctxplumb closed-form grid, finishes in microseconds; registry signature only
	costRatios := []float64{1, 10, 100}
	varRatios := []float64{1.5, 2, 10}
	alphaGrid := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.333, 0.5, 1}
	res := Result{
		ID:    "E5",
		Title: "Optimal replication fraction α* across scenarios",
		Paper: "§2.3: depending on c1/c2 and V1/V2, arbitrarily large efficiency improvements are possible",
		Shape: "g̃(α*) ≤ g̃(α) on a grid; gains grow with c1/c2",
	}
	ok := true
	prevGain := 0.0
	gainsGrow := true
	for _, cr := range costRatios {
		maxGain := 0.0
		for _, vr := range varRatios {
			s := composite.Statistics{C1: cr, C2: 1, V1: vr, V2: 1}
			astar := composite.OptimalAlpha(s, 1e-3)
			gstar := composite.GTilde(astar, s)
			for _, a := range alphaGrid {
				if composite.GTilde(a, s) < gstar-1e-9 {
					ok = false
				}
			}
			gain := composite.GTilde(1, s) / gstar
			if gain > maxGain {
				maxGain = gain
			}
			res.Rows = append(res.Rows, Row{
				Name:  fmt.Sprintf("c1/c2=%g V1/V2=%g: α*, gain", cr, vr),
				Value: gain, Unit: fmt.Sprintf("× at α*=%.3g", astar),
			})
		}
		if maxGain < prevGain {
			gainsGrow = false
		}
		prevGain = maxGain
	}
	res.Verdict = ok && gainsGrow
	return res, nil
}

// runE6 runs the Indemics Algorithm 1 experiment: vaccinate
// preschoolers when >1% are infectious, vs no intervention.
func runE6(ctx context.Context, seed uint64) (Result, error) {
	run := func(policy bool) (float64, int, error) {
		net, err := indemics.GeneratePopulation(indemics.PopulationConfig{
			N: 10000, MeanDegree: 8, Rewire: 0.1,
		}, rng.New(seed))
		if err != nil {
			return 0, 0, err
		}
		sim, err := indemics.NewSim(net, indemics.Params{
			Beta: 0.25, LatentDays: 2, InfectiousDays: 4,
		}, seed+1)
		if err != nil {
			return 0, 0, err
		}
		sim.Seed(20)
		var obs indemics.Observer
		fired := -1
		firedPtr := &fired
		if policy {
			obs, firedPtr = indemics.VaccinatePreschoolersPolicy(0.01)
		}
		if err := sim.Run(300, obs); err != nil {
			return 0, 0, err
		}
		return sim.AttackRate(), *firedPtr, nil
	}
	arBase, _, err := run(false)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	arPolicy, fired, err := run(true)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:    "E6",
		Title: "Indemics: SQL-specified intervention (Algorithm 1)",
		Paper: "§2.4: pause the HPC simulation, query the RDBMS snapshot, vaccinate preschoolers when >1% are sick",
		Shape: "intervention fires and reduces the final attack rate",
		Rows: []Row{
			{Name: "population", Value: 10000, Unit: "people"},
			{Name: "days simulated", Value: 300, Unit: ""},
			{Name: "attack rate, no intervention", Value: arBase, Unit: "fraction"},
			{Name: "attack rate, Algorithm 1", Value: arPolicy, Unit: "fraction"},
			{Name: "intervention day", Value: float64(fired), Unit: "day"},
			{Name: "attack-rate reduction", Value: arBase - arPolicy, Unit: "fraction"},
		},
	}
	res.Verdict = fired > 0 && arPolicy < arBase
	return res, nil
}

// runE7 measures range-query accuracy in PDES-MAS under ALP skew, plus
// the hop savings from SSV migration.
func runE7(ctx context.Context, seed uint64) (Result, error) {
	w, err := pdesmas.NewWorld(pdesmas.WorldConfig{
		Agents: 1000, ALPs: 8, Leaves: 8,
		DtMin: 0.05, DtMax: 0.4, Speed: 1, Span: 200,
	}, rng.New(seed))
	if err != nil {
		return Result{}, err
	}
	if err := w.AdvanceAllUneven(20, 2); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	q := pdesmas.RangeQuery{Time: 20, Center: 100, Radius: 40, MinAge: 25, AskerID: 0}
	truth := w.GroundTruth(q)
	syncAgents, err := w.RunSync(q)
	if err != nil {
		return Result{}, err
	}
	naiveAgents, err := w.RunNaive(q)
	if err != nil {
		return Result{}, err
	}
	syncErr := pdesmas.SymmetricDiff(syncAgents, truth)
	naiveErr := pdesmas.SymmetricDiff(naiveAgents, truth)

	// Migration experiment: hops before/after moving hot SSVs.
	w.Tree.Hops = 0
	if _, err := w.RunSync(q); err != nil {
		return Result{}, err
	}
	hopsBefore := w.Tree.Hops
	moved := w.Tree.Migrate()
	w.Tree.Hops = 0
	if _, err := w.RunSync(q); err != nil {
		return Result{}, err
	}
	hopsAfter := w.Tree.Hops

	res := Result{
		ID:    "E7",
		Title: "PDES-MAS synchronized range queries and SSV migration",
		Paper: "§2.4: ALPs progress at different rates; answering instantaneous range queries correctly is challenging; the CLP tree migrates SSVs toward accessors",
		Shape: "timestamp-synchronized queries beat latest-value reads; migration cuts routing hops",
		Rows: []Row{
			{Name: "ground-truth matches", Value: float64(len(truth)), Unit: "agents"},
			{Name: "synchronized query error", Value: float64(syncErr), Unit: "agents"},
			{Name: "naive query error", Value: float64(naiveErr), Unit: "agents"},
			{Name: "SSVs migrated", Value: float64(moved), Unit: ""},
			{Name: "query hops before migration", Value: float64(hopsBefore), Unit: ""},
			{Name: "query hops after migration", Value: float64(hopsAfter), Unit: ""},
		},
	}
	res.Verdict = syncErr < naiveErr && hopsAfter < hopsBefore
	return res, nil
}
