package experiments

import (
	"context"

	"fmt"
	"math"

	"modeldata/internal/calibrate"
	"modeldata/internal/composite"
	"modeldata/internal/des"
	"modeldata/internal/doe"
	"modeldata/internal/indemics"
	"modeldata/internal/metamodel"
	"modeldata/internal/rng"
	"modeldata/internal/stats"
	"modeldata/internal/surrogate"
)

// E14–E16 implement directions the paper sketches but does not
// evaluate: GP-hyperparameter factor screening (§4.3, "a number of
// studies have looked at the factor screening problem in this
// context"), SQL-driven intervention-policy optimization over the
// Indemics performance measure (§2.4), and stochastic-kriging
// calibration (§3.1's closing suggestion).

func init() {
	register("E14", runE14)
	register("E15", runE15)
	register("E16", runE16)
	register("E17", runE17)
}

// runE14 screens factors via fitted GP sensitivity coefficients: the
// response depends on 2 of 6 factors; θ_j ≈ 0 flags the inactive ones.
func runE14(ctx context.Context, seed uint64) (Result, error) {
	const n = 6
	active := map[int]bool{1: true, 4: true}
	response := func(x []float64) float64 {
		return math.Sin(3*x[1]) + 0.8*x[4]*x[4]
	}
	lh, err := doe.NearlyOrthogonalLH(n, 33, seed, 20000)
	if err != nil {
		return Result{}, err
	}
	design := lh.Points(0, 1)
	y := make([]float64, len(design))
	for i, p := range design {
		y[i] = response(p)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	gp, err := metamodel.FitGPMLE(design, y, nil, calibrate.NMOptions{MaxEvals: 600})
	if err != nil {
		return Result{}, err
	}
	// MLE collapses inactive sensitivities toward zero across hundreds
	// of decades, so classify by the largest log-scale gap rather than
	// a fixed threshold.
	maxTheta := 0.0
	for _, v := range gp.Theta {
		if v > maxTheta {
			maxTheta = v
		}
	}
	important := metamodel.ThetaImportanceByGap(gp.Theta, 0)
	correct := len(important) == 2
	for _, j := range important {
		if !active[j] {
			correct = false
		}
	}
	res := Result{
		ID:    "E14",
		Title: "Factor screening from GP sensitivity coefficients",
		Paper: "§4.3: 'a very low value for θ_j implies ... no variability in model response as the value of the j-th parameter changes'",
		Shape: "MLE-fitted θ ranks exactly the active factors above the inactive ones",
		Rows: []Row{
			{Name: "factors", Value: n, Unit: ""},
			{Name: "design runs", Value: float64(len(design)), Unit: ""},
			{Name: "factors flagged important", Value: float64(len(important)), Unit: ""},
			{Name: "classification correct", Value: b2f(correct), Unit: "bool"},
			{Name: "max θ (active)", Value: maxTheta, Unit: ""},
		},
	}
	res.Verdict = correct
	return res, nil
}

// runE15 optimizes the Algorithm 1 trigger threshold against the
// economic-damage performance measure: SQL queries expose the
// measure, and the trigger fraction is chosen by grid search.
func runE15(ctx context.Context, seed uint64) (Result, error) {
	const (
		costPerCase    = 100.0
		costPerVaccine = 40.0
	)
	damageAt := func(trigger float64) (float64, error) {
		net, err := indemics.GeneratePopulation(indemics.PopulationConfig{
			N: 3000, MeanDegree: 8, Rewire: 0.1,
		}, rng.New(seed))
		if err != nil {
			return 0, err
		}
		sim, err := indemics.NewSim(net, indemics.Params{
			Beta: 0.25, LatentDays: 2, InfectiousDays: 4,
		}, seed+1)
		if err != nil {
			return 0, err
		}
		sim.Seed(6)
		var obs indemics.Observer
		if trigger > 0 {
			obs, _ = indemics.VaccinatePreschoolersPolicy(trigger)
		}
		if err := sim.Run(150, obs); err != nil {
			return 0, err
		}
		return sim.Damage(costPerCase, costPerVaccine), nil
	}
	baseline, err := damageAt(0) // no intervention
	if err != nil {
		return Result{}, err
	}
	triggers := []float64{0.005, 0.01, 0.05, 0.2}
	best, bestDamage := 0.0, baseline
	res := Result{
		ID:    "E15",
		Title: "Intervention policy optimization on economic damage",
		Paper: "§2.4: 'queries can also be used [to] compute values of performance measures that are to be optimized (e.g., number of infected cases or economic damage)'",
		Shape: "some trigger threshold strictly reduces damage below no-intervention",
		Rows: []Row{
			{Name: "damage, no intervention", Value: baseline, Unit: "$"},
		},
	}
	for _, tr := range triggers {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		d, err := damageAt(tr)
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, Row{
			Name: fmt.Sprintf("damage, trigger %.3f", tr), Value: d, Unit: "$",
		})
		if d < bestDamage {
			bestDamage, best = d, tr
		}
	}
	res.Rows = append(res.Rows,
		Row{Name: "best trigger", Value: best, Unit: ""},
		Row{Name: "damage saving", Value: baseline - bestDamage, Unit: "$"},
	)
	res.Verdict = best > 0 && bestDamage < baseline
	return res, nil
}

// runE16 performs stochastic-kriging calibration of the traffic model:
// the §3.1 suggestion to replace deterministic kriging with stochastic
// kriging, using replication-based noise estimates inside a sequential
// surrogate loop.
func runE16(ctx context.Context, seed uint64) (Result, error) {
	trueTheta := []float64{0.3, 0.6}
	r := rng.New(seed)
	obs := make([][]float64, 30)
	for i := range obs {
		obs[i] = TrafficMoments(trueTheta, r.Split())
	}
	problem := &calibrate.MSM{
		Observed: obs, Simulate: TrafficMoments, SimReps: 20, Seed: seed + 3,
	}
	if err := problem.EstimateOptimalWeight(); err != nil {
		return Result{}, err
	}
	// Noisy objective: J with a fresh simulation seed per evaluation
	// (no CRN), so stochastic kriging has real noise to model.
	evalSeed := seed + 1000
	noisy := func(x []float64, _ *rng.Stream) float64 {
		evalSeed++
		p := &calibrate.MSM{
			Observed: obs, Simulate: TrafficMoments, SimReps: 10, Seed: evalSeed,
		}
		p.Weight = problem.Weight
		j, err := p.J(x)
		if err != nil {
			return 1e300
		}
		return math.Log(j + 1e-12)
	}
	sp := &surrogate.Problem{
		Objective: noisy,
		Lo:        []float64{0.05, 0.05},
		Hi:        []float64{0.95, 0.95},
		Reps:      3,
		Seed:      seed + 5,
	}
	lh, err := doe.NearlyOrthogonalLH(2, 13, seed, 20000)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	skRes, err := sp.Minimize(lh.Points(0, 1), 15, 5)
	if err != nil {
		return Result{}, err
	}
	jAt, err := problem.J(skRes.X)
	if err != nil {
		return Result{}, err
	}
	jTrue, err := problem.J(trueTheta)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:    "E16",
		Title: "Stochastic-kriging calibration of the traffic ABS",
		Paper: "§3.1: 'the kriging method used in [45] could potentially be replaced by stochastic kriging ... which incorporate simulation variability into the fitting algorithm'",
		Shape: "the SK surrogate loop lands at a θ̂ whose J is within a small factor of J(true θ)",
		Rows: []Row{
			{Name: "θ̂ accel", Value: skRes.X[0], Unit: ""},
			{Name: "θ̂ brake", Value: skRes.X[1], Unit: ""},
			{Name: "J at θ̂", Value: jAt, Unit: ""},
			{Name: "J at true θ", Value: jTrue, Unit: ""},
			{Name: "objective evaluations", Value: float64(skRes.Evals), Unit: ""},
		},
	}
	res.Verdict = jAt < 20*jTrue
	return res, nil
}

// runE17 reproduces the §2.3 motivating example end to end with the
// real models: M1 is a demand model generating a sequence of customer
// arrival times; M2 is a queueing model whose output is the average
// waiting time of the first 100 customers. Result caching with the
// pilot-estimated α* is compared empirically against no caching under
// a fixed computing budget.
func runE17(ctx context.Context, seed uint64) (Result, error) {
	const (
		nCustomers = 100
		lambda     = 0.9
		mu         = 1.0
	)
	// The composite: M1's output Y1 is summarized by its random seed
	// material (the arrival sequence); to fit the scalar TwoStage
	// interface we cache the arrival sequences by index.
	var cache [][]float64
	two := composite.TwoStage{
		M1: func(r *rng.Stream) float64 {
			cache = append(cache, des.PoissonArrivals(nCustomers, lambda, r))
			return float64(len(cache) - 1)
		},
		M2: func(y1 float64, r *rng.Stream) float64 {
			arrivals := cache[int(y1)]
			wait, err := des.SimulateQueue(arrivals, rng.ExponentialDist{Rate: mu}, nCustomers, r)
			if err != nil {
				return math.NaN()
			}
			return wait
		},
		// Generating + transforming + storing 100 arrival times is
		// assigned 5× the cost of one queue pass (the demand model in
		// §2.3 is the expensive upstream component).
		C1: 5, C2: 1,
	}
	pilot, err := two.PilotEstimate(400, seed)
	if err != nil {
		return Result{}, err
	}
	astar := composite.OptimalAlpha(pilot, 0.02)

	const budget = 1200.0
	const reps = 300
	variance := func(alpha float64) (float64, error) {
		parent := rng.New(seed + uint64(alpha*1e6))
		thetas := make([]float64, reps)
		for i := range thetas {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			cache = cache[:0]
			run, err := two.RunBudgeted(budget, alpha, parent.Uint64())
			if err != nil {
				return 0, err
			}
			thetas[i] = run.Theta
		}
		return stats.Variance(thetas), nil
	}
	vStar, err := variance(astar)
	if err != nil {
		return Result{}, err
	}
	vOne, err := variance(1)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:    "E17",
		Title: "§2.3 motivating example: demand → queue with result caching",
		Paper: "§2.3: M1 generates customer arrival times; M2 outputs the average waiting time of the first 100 customers; cache and reuse M1 outputs",
		Shape: "pilot-estimated α* < 1 and the α* estimator has lower budget-constrained variance than α = 1",
		Rows: []Row{
			{Name: "pilot V1 (output variance)", Value: pilot.V1, Unit: ""},
			{Name: "pilot V2 (shared-input covariance)", Value: pilot.V2, Unit: ""},
			{Name: "α* from pilot", Value: astar, Unit: ""},
			{Name: "Var(θ̂) at α*", Value: vStar, Unit: ""},
			{Name: "Var(θ̂) at α=1 (no caching)", Value: vOne, Unit: ""},
			{Name: "variance reduction", Value: vOne / vStar, Unit: "×"},
		},
	}
	res.Verdict = astar < 1 && vStar < vOne
	return res, nil
}
