package experiments

import (
	"context"

	"fmt"
	"math"

	"modeldata/internal/assimilate"
	"modeldata/internal/calibrate"
	"modeldata/internal/doe"
	"modeldata/internal/gridfield"
	"modeldata/internal/metamodel"
	"modeldata/internal/rng"
	"modeldata/internal/wildfire"
)

func init() {
	register("E8", runE8)
	register("E9", runE9)
	register("E10", runE10)
	register("E11", runE11)
	register("E12", runE12)
	register("E13", runE13)
}

// TrafficMoments simulates the §1 traffic model at parameters
// θ = (accel, brake) and returns its moment signature. Cars on a
// circular road accelerate toward a comfortable speed when the road is
// clear and brake in proportion to closing distance — the Bonabeau
// behavioral rules. The statistic vector is the MomentVector of the
// mean-speed time series.
func TrafficMoments(theta []float64, r *rng.Stream) []float64 {
	accel := math.Abs(theta[0])
	brake := math.Abs(theta[1])
	const (
		nCars   = 40
		roadLen = 400.0
		vMax    = 5.0
		steps   = 120
	)
	pos := make([]float64, nCars)
	vel := make([]float64, nCars)
	for i := range pos {
		pos[i] = float64(i) * roadLen / nCars * (0.9 + 0.2*r.Float64())
		vel[i] = vMax * r.Float64()
	}
	meanSpeed := make([]float64, steps)
	for t := 0; t < steps; t++ {
		for i := range pos {
			ahead := (i + 1) % nCars
			gap := math.Mod(pos[ahead]-pos[i]+roadLen, roadLen)
			if gap < 10 {
				// Someone appears in front: slow down at rate `brake`.
				vel[i] -= brake * (10 - gap) / 10 * vel[i]
			} else {
				// Clear road: accelerate toward the comfortable speed.
				vel[i] += accel * (vMax - vel[i])
			}
			vel[i] += r.Normal(0, 0.05)
			if vel[i] < 0 {
				vel[i] = 0
			}
			if vel[i] > vMax {
				vel[i] = vMax
			}
		}
		sum := 0.0
		for i := range pos {
			pos[i] = math.Mod(pos[i]+vel[i], roadLen)
			sum += vel[i]
		}
		meanSpeed[t] = sum / nCars
	}
	return calibrate.MomentVector(meanSpeed)
}

// runE8 calibrates the traffic ABS with MSM and compares the
// Nelder-Mead, grid, and kriging-surrogate (NOLH + GP) strategies.
func runE8(ctx context.Context, seed uint64) (Result, error) {
	trueTheta := []float64{0.3, 0.6}
	// Synthetic "observed" data from the true parameters.
	r := rng.New(seed)
	obs := make([][]float64, 40)
	for i := range obs {
		obs[i] = TrafficMoments(trueTheta, r.Split())
	}
	problem := &calibrate.MSM{
		Observed: obs,
		Simulate: TrafficMoments,
		SimReps:  30,
		Seed:     seed + 9,
	}
	if err := problem.EstimateOptimalWeight(); err != nil {
		return Result{}, err
	}

	// Strategy 1: Nelder-Mead from a deliberately wrong start.
	nm, err := problem.Calibrate([]float64{0.1, 0.2}, calibrate.NMOptions{MaxEvals: 120, Tol: 1e-8})
	if err != nil {
		return Result{}, err
	}
	// Strategy 2: grid search.
	grid := [][]float64{
		{0.1, 0.2, 0.3, 0.4, 0.5},
		{0.2, 0.4, 0.6, 0.8},
	}
	gr, err := problem.CalibrateGrid(grid)
	if err != nil {
		return Result{}, err
	}
	// Strategy 3: kriging surrogate over a NOLH design (Salle &
	// Yildizoglu): evaluate J on the design, fit a GP, minimize the
	// surrogate on a fine grid (surrogate evaluations are free).
	lh, err := doe.NearlyOrthogonalLH(2, 17, seed, 20000)
	if err != nil {
		return Result{}, err
	}
	design := lh.Points(0.05, 0.95)
	// Kriging over log J: the inverse-covariance weighting makes J span
	// orders of magnitude, which a GP fits poorly on the raw scale.
	jVals := make([]float64, len(design))
	for i, p := range design {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		j, err := problem.J(p)
		if err != nil {
			return Result{}, err
		}
		jVals[i] = math.Log(j + 1e-12)
	}
	gp, err := metamodel.FitGPMLE(design, jVals, nil, calibrate.NMOptions{MaxEvals: 300})
	if err != nil {
		return Result{}, err
	}
	bestSurr := []float64{0, 0}
	bestVal := math.Inf(1)
	for a := 0.05; a <= 0.95; a += 0.02 {
		for b := 0.05; b <= 0.95; b += 0.02 {
			v, err := gp.Predict([]float64{a, b})
			if err != nil {
				return Result{}, err
			}
			if v < bestVal {
				bestVal = v
				bestSurr = []float64{a, b}
			}
		}
	}
	jSurr, err := problem.J(bestSurr)
	if err != nil {
		return Result{}, err
	}
	// Surrogate workflows keep the best *evaluated* point: the design
	// points were already simulated, so return whichever of (surrogate
	// argmin, best design point) truly minimizes J.
	surrEvals := len(design) + 1
	for i, p := range design {
		if j := math.Exp(jVals[i]); j < jSurr {
			jSurr, bestSurr = j, p
		}
	}
	jNM, err := problem.J(nm.X)
	if err != nil {
		return Result{}, err
	}
	jGrid, err := problem.J(gr.X)
	if err != nil {
		return Result{}, err
	}
	thetaErr := math.Hypot(math.Abs(nm.X[0])-trueTheta[0], math.Abs(nm.X[1])-trueTheta[1])

	res := Result{
		ID:    "E8",
		Title: "MSM calibration of the traffic ABS",
		Paper: "§3.1: minimize J(θ)=GᵀWG with simulated moments; Nelder-Mead beats grid; DOE+kriging cuts simulator cost",
		Shape: "θ̂ near truth; J(NM) ≤ J(grid); surrogate competitive with far fewer simulator evaluations",
		Rows: []Row{
			{Name: "true θ = (accel, brake)", Value: trueTheta[0], Unit: fmt.Sprintf("and %g", trueTheta[1])},
			{Name: "Nelder-Mead θ̂ error (L2)", Value: thetaErr, Unit: ""},
			{Name: "J at Nelder-Mead θ̂", Value: jNM, Unit: ""},
			{Name: "Nelder-Mead J evaluations", Value: float64(nm.Evals), Unit: ""},
			{Name: "J at grid θ̂", Value: jGrid, Unit: ""},
			{Name: "grid J evaluations", Value: float64(gr.Evals), Unit: ""},
			{Name: "J at surrogate θ̂", Value: jSurr, Unit: ""},
			{Name: "surrogate J evaluations", Value: float64(surrEvals), Unit: ""},
		},
	}
	res.Verdict = thetaErr < 0.2 && jNM <= jGrid+1e-9 && jSurr <= jGrid*1.5 &&
		surrEvals < nm.Evals
	return res, nil
}

// runE9 sweeps particle counts for the wildfire filter with the prior
// proposal, compares against free-running simulation and the
// sensor-aware proposal, and demonstrates SIS collapse.
func runE9(ctx context.Context, seed uint64) (Result, error) {
	p := wildfire.Params{SpreadProb: 0.25, BurnSteps: 5, IntensityMean: 1, IntensityStd: 0.2}
	sm := wildfire.Sensors{Block: 4, Ambient: 20, FireTemp: 50, Noise: 5}
	const w, h, steps = 16, 16, 15
	init := func(r *rng.Stream) *wildfire.State {
		s, err := wildfire.NewState(w, h)
		if err != nil {
			panic(err)
		}
		if err := s.Ignite(w/2, h/2, 1); err != nil {
			panic(err)
		}
		return s
	}

	// One shared truth trajectory + observations.
	r := rng.New(seed)
	truth := init(r)
	var truths []*wildfire.State
	var obs [][]float64
	for i := 0; i < steps; i++ {
		var err error
		truth, err = wildfire.StepFire(truth, p, r)
		if err != nil {
			return Result{}, err
		}
		truths = append(truths, truth)
		obs = append(obs, sm.Observe(truth, r))
	}

	runFilter := func(model assimilate.Model[*wildfire.State, []float64], n int, disableResample bool) (meanErr, finalESS float64, err error) {
		f, err := assimilate.NewFilter(model, n, seed+uint64(n))
		if err != nil {
			return 0, 0, err
		}
		f.DisableResampling = disableResample
		total := 0
		for i := 0; i < steps; i++ {
			ps, err := f.StepCtx(ctx, obs[i])
			if err != nil {
				return 0, 0, err
			}
			cons, err := wildfire.ConsensusState(ps)
			if err != nil {
				return 0, 0, err
			}
			total += wildfire.CellError(cons, truths[i])
		}
		return float64(total) / steps, f.ESSTrace[len(f.ESSTrace)-1], nil
	}

	res := Result{
		ID:    "E9",
		Title: "Wildfire data assimilation via particle filtering",
		Paper: "§3.2: PF fuses simulation and sensors; accuracy grows with N; the sensor-aware proposal improves the prior proposal; SIS collapses without resampling",
		Shape: "error(N) decreasing; assimilation ≪ free-running; SIS ESS → 1",
	}

	// Error vs N for the prior proposal.
	prior := wildfire.PriorModel(p, sm, init)
	var errs []float64
	for _, n := range []int{20, 80, 320} {
		e, _, err := runFilter(prior, n, false)
		if err != nil {
			return Result{}, err
		}
		errs = append(errs, e)
		res.Rows = append(res.Rows, Row{Name: fmt.Sprintf("prior proposal error, N=%d", n), Value: e, Unit: "cells"})
	}

	// Free-running baseline.
	free := init(rng.New(seed + 999))
	rFree := rng.New(seed + 1000)
	totalFree := 0
	for i := 0; i < steps; i++ {
		var err error
		free, err = wildfire.StepFire(free, p, rFree)
		if err != nil {
			return Result{}, err
		}
		totalFree += wildfire.CellError(free, truths[i])
	}
	freeErr := float64(totalFree) / steps
	res.Rows = append(res.Rows, Row{Name: "free-running (no assimilation) error", Value: freeErr, Unit: "cells"})

	// Sensor-aware proposal at small N.
	aware := wildfire.SensorAwareModel(p, sm, init, wildfire.SensorAwareConfig{M: 15})
	awareErr, _, err := runFilter(aware, 20, false)
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, Row{Name: "sensor-aware proposal error, N=20", Value: awareErr, Unit: "cells"})

	// SIS collapse demonstration. The fire likelihood with crisp
	// sensors is so peaked that even per-step (SIR) weights are nearly
	// degenerate, masking the *cumulative* SIS collapse — so this
	// sub-experiment uses a flatter sensor model (higher noise), under
	// which SIR retains a healthy ESS while SIS still collapses.
	smooth := sm
	smooth.Noise = 80
	smoothObs := make([][]float64, steps)
	rS := rng.New(seed + 5)
	for i := range smoothObs {
		smoothObs[i] = smooth.Observe(truths[i], rS)
	}
	runESS := func(disable bool) (float64, error) {
		f, err := assimilate.NewFilter(wildfire.PriorModel(p, smooth, init), 100, seed+77)
		if err != nil {
			return 0, err
		}
		f.DisableResampling = disable
		for i := 0; i < steps; i++ {
			if _, err := f.Step(smoothObs[i]); err != nil {
				return 0, err
			}
		}
		return f.ESSTrace[len(f.ESSTrace)-1], nil
	}
	sisESS, err := runESS(true)
	if err != nil {
		return Result{}, err
	}
	sirESS, err := runESS(false)
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows,
		Row{Name: "final ESS, SIS (no resampling), N=100", Value: sisESS, Unit: "particles"},
		Row{Name: "final ESS, SIR, N=100", Value: sirESS, Unit: "particles"},
	)

	res.Verdict = errs[2] <= errs[0] && errs[2] < freeErr &&
		awareErr <= errs[0]*1.5+1 && sisESS < sirESS
	return res, nil
}

// runE10 verifies the §4.1 kriging properties: exact interpolation at
// design points for deterministic simulation, smoothing under
// stochastic kriging.
func runE10(ctx context.Context, seed uint64) (Result, error) {
	r := rng.New(seed)
	f := func(p []float64) float64 { return math.Sin(3*p[0]) * math.Cos(2*p[1]) }
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		pt := []float64{r.Float64() * 2, r.Float64() * 2}
		x = append(x, pt)
		y = append(y, f(pt))
	}
	gp, err := metamodel.FitGP(x, y, []float64{5, 5}, 1)
	if err != nil {
		return Result{}, err
	}
	maxKnot, maxOff := 0.0, 0.0
	for i, xi := range x {
		pred, err := gp.Predict(xi)
		if err != nil {
			return Result{}, err
		}
		if e := math.Abs(pred - y[i]); e > maxKnot {
			maxKnot = e
		}
	}
	for i := 0; i < 100; i++ {
		pt := []float64{0.1 + 1.8*r.Float64(), 0.1 + 1.8*r.Float64()}
		pred, err := gp.Predict(pt)
		if err != nil {
			return Result{}, err
		}
		if e := math.Abs(pred - f(pt)); e > maxOff {
			maxOff = e
		}
	}
	// Stochastic kriging on noisy replications of a constant.
	var xs [][]float64
	var yN, nv []float64
	for i := 0; i < 15; i++ {
		xs = append(xs, []float64{float64(i) / 4, 0})
		yN = append(yN, 3+r.Normal(0, 0.4))
		nv = append(nv, 0.16)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	sk, err := metamodel.FitStochasticKriging(xs, yN, nv, []float64{2, 2}, 1)
	if err != nil {
		return Result{}, err
	}
	skErr := 0.0
	for _, xi := range xs {
		pred, err := sk.Predict(xi)
		if err != nil {
			return Result{}, err
		}
		skErr += math.Abs(pred-3) / float64(len(xs))
	}
	res := Result{
		ID:    "E10",
		Title: "Kriging exactness and stochastic kriging",
		Paper: "§4.1: Ŷ(xᵢ) coincides with Y(xᵢ) at design points; [Σ_M+Σ_ε]⁻¹ smooths stochastic responses",
		Shape: "zero knot error; small off-design error; SK stays near the true mean",
		Rows: []Row{
			{Name: "max |Ŷ−Y| at design points", Value: maxKnot, Unit: ""},
			{Name: "max |Ŷ−f| off-design", Value: maxOff, Unit: ""},
			{Name: "stochastic kriging mean |Ŷ−truth|", Value: skErr, Unit: ""},
		},
	}
	res.Verdict = maxKnot < 1e-5 && maxOff < 0.25 && skErr < 0.3
	return res, nil
}

// runE11 reproduces the §4.2 design-size ladder for seven factors.
func runE11(_ context.Context, _ uint64) (Result, error) { //lint:allow ctxplumb tabulates fixed design sizes, nothing to cancel
	full, err := doe.FullFactorial(7)
	if err != nil {
		return Result{}, err
	}
	r3 := doe.ResolutionIII7()
	r4 := doe.ResolutionIV7()
	r5 := doe.ResolutionV7()
	res := Result{
		ID:    "E11",
		Title: "Design sizes for seven parameters",
		Paper: "§4.2: full factorial 128 runs; resolution III 8; resolution IV 16; resolution V 32",
		Shape: "run counts match the paper exactly; all designs orthogonal",
		Rows: []Row{
			{Name: "full factorial runs", Value: float64(full.NumRuns()), Unit: ""},
			{Name: "resolution III runs", Value: float64(r3.NumRuns()), Unit: ""},
			{Name: "resolution IV runs", Value: float64(r4.NumRuns()), Unit: ""},
			{Name: "resolution V runs", Value: float64(r5.NumRuns()), Unit: ""},
			{Name: "data-generation saving (full/III)", Value: float64(full.NumRuns()) / float64(r3.NumRuns()), Unit: "×"},
		},
	}
	res.Verdict = full.NumRuns() == 128 && r3.NumRuns() == 8 && r4.NumRuns() == 16 &&
		r5.NumRuns() == 32 && r3.ColumnsOrthogonal() && r4.ColumnsOrthogonal() && r5.ColumnsOrthogonal()
	return res, nil
}

// runE12 compares sequential bifurcation against one-factor-at-a-time
// screening on a 32-factor model with 3 important factors.
func runE12(ctx context.Context, seed uint64) (Result, error) {
	const n = 32
	beta := make([]float64, n)
	beta[4], beta[18], beta[27] = 6, 9, 4
	sim := doe.LinearScreeningModel(beta, 0.2)
	sb, err := doe.SequentialBifurcation(n, sim, doe.SBOptions{Threshold: 1.5, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ofat, err := doe.OneFactorAtATime(n, sim, doe.SBOptions{Threshold: 1.5, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	correct := len(sb.Important) == 3 && sb.Important[0] == 4 &&
		sb.Important[1] == 18 && sb.Important[2] == 27
	res := Result{
		ID:    "E12",
		Title: "Sequential bifurcation factor screening",
		Paper: "§4.3: group testing is much faster than testing each individual parameter",
		Shape: "SB finds exactly the important factors with far fewer runs than OFAT",
		Rows: []Row{
			{Name: "factors", Value: n, Unit: ""},
			{Name: "important factors found by SB", Value: float64(len(sb.Important)), Unit: ""},
			{Name: "SB simulator runs", Value: float64(sb.Runs), Unit: ""},
			{Name: "OFAT simulator runs", Value: float64(ofat.Runs), Unit: ""},
			{Name: "run saving", Value: float64(ofat.Runs) / float64(sb.Runs), Unit: "×"},
		},
	}
	res.Verdict = correct && sb.Runs < ofat.Runs
	return res, nil
}

// runE13 verifies the gridfield restrict/regrid commute law and its
// cost saving on an irregular grid.
func runE13(ctx context.Context, seed uint64) (Result, error) {
	r := rng.New(seed)
	src, err := gridfield.IrregularGrid2D(40, 40, func(q int) bool { return r.Bool(0.15) })
	if err != nil {
		return Result{}, err
	}
	dst, err := gridfield.UniformGrid1D(40)
	if err != nil {
		return Result{}, err
	}
	assign := func(srcID int) (int, bool) { return srcID / 40, true }
	keep := func(band int) bool { return band < 8 }
	mkField := func() (*gridfield.Field, error) {
		return gridfield.Bind(src, 0, func(id int) float64 { return float64(id % 97) })
	}
	// Plan A: regrid all, restrict after.
	a, err := mkField()
	if err != nil {
		return Result{}, err
	}
	fullOut, err := a.Regrid(dst, 0, assign, gridfield.AggMean)
	if err != nil {
		return Result{}, err
	}
	planA := fullOut.Restrict(func(id int, v float64) bool { return keep(id) })
	regridA := *a.RegridTouched
	// Plan B: push the restriction below the regrid.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	b, err := mkField()
	if err != nil {
		return Result{}, err
	}
	restricted := b.Restrict(func(id int, v float64) bool {
		band, _ := assign(id)
		return keep(band)
	})
	planB, err := restricted.Regrid(dst, 0, assign, gridfield.AggMean)
	if err != nil {
		return Result{}, err
	}
	regridB := *b.RegridTouched

	identical := len(planA.Data) == len(planB.Data)
	if identical {
		for id, v := range planA.Data {
			w, ok := planB.Data[id]
			if !ok || math.Abs(v-w) > 1e-12 {
				identical = false
				break
			}
		}
	}
	res := Result{
		ID:    "E13",
		Title: "Gridfield restrict/regrid commute rewrite",
		Paper: "§2.2: restriction operations can commute with regrid, creating opportunities for optimization",
		Shape: "identical outputs; pushed-down plan regrids ~20% of the cells",
		Rows: []Row{
			{Name: "outputs identical", Value: b2f(identical), Unit: "bool"},
			{Name: "cells regridded, restrict-after", Value: float64(regridA), Unit: ""},
			{Name: "cells regridded, restrict-first", Value: float64(regridB), Unit: ""},
			{Name: "regrid work saving", Value: float64(regridA) / float64(regridB), Unit: "×"},
		},
	}
	res.Verdict = identical && regridB*2 < regridA
	return res, nil
}
