package experiments

import (
	"context"

	"fmt"
	"math"
	"sort"

	"modeldata/internal/calibrate"
	"modeldata/internal/engine"
	"modeldata/internal/linalg"
	"modeldata/internal/rng"
	"modeldata/internal/sgd"
	"modeldata/internal/simsql"
	"modeldata/internal/stats"
)

// Ablations probe the design choices DESIGN.md calls out, beyond what
// the paper itself reports: A1 the Kaczmarz projection step inside
// SGD/DSGD, A2 common random numbers inside the MSM objective, A3 the
// deterministic cycling reuse order inside result caching, and A4 the
// partitioned parallelism of the ABS self-join.

func init() {
	register("A1", runA1)
	register("A2", runA2)
	register("A3", runA3)
	register("A4", runA4)
}

// runA1 ablates the Kaczmarz exact-projection step against the paper's
// plain decaying-step SGD on the spline system.
func runA1(ctx context.Context, seed uint64) (Result, error) {
	const n = 5000
	tri := &linalg.Tridiagonal{
		Sub: make([]float64, n-1), Diag: make([]float64, n), Super: make([]float64, n-1),
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		tri.Diag[i] = 4
		b[i] = math.Sin(float64(i) / 9)
	}
	for i := 0; i < n-1; i++ {
		tri.Sub[i], tri.Super[i] = 1, 1
	}
	const epochs = 40
	_, kStats, err := sgd.Solve(tri, b, sgd.Options{Epochs: epochs, Kaczmarz: true, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	_, pStats, err := sgd.Solve(tri, b, sgd.Options{Epochs: epochs, Kaczmarz: false, Step0: 0.02, Alpha: 0.51, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:    "A1",
		Title: "Ablation: Kaczmarz projection vs decaying-step SGD",
		Paper: "design choice: the repo defaults DSGD to per-row exact projection steps; the paper's schedule is εₙ = n^(−α)",
		Shape: "equal epochs, orders-of-magnitude lower residual with the projection step",
		Rows: []Row{
			{Name: "epochs (both)", Value: epochs, Unit: ""},
			{Name: "Kaczmarz residual", Value: kStats.Residual, Unit: ""},
			{Name: "decaying-step residual", Value: pStats.Residual, Unit: ""},
			{Name: "residual ratio", Value: pStats.Residual / kStats.Residual, Unit: "×"},
		},
	}
	res.Verdict = kStats.Residual < pStats.Residual/100
	return res, nil
}

// runA2 ablates common random numbers in the MSM objective: with CRN
// the surface J(θ) is deterministic; without, simulation chatter makes
// repeated evaluations at the same θ disagree, which derails
// simplex-based optimizers.
func runA2(ctx context.Context, seed uint64) (Result, error) {
	trueTheta := []float64{0.3, 0.6}
	r := rng.New(seed)
	obs := make([][]float64, 30)
	for i := range obs {
		obs[i] = TrafficMoments(trueTheta, r.Split())
	}
	mkProblem := func(s uint64) *calibrate.MSM {
		return &calibrate.MSM{Observed: obs, Simulate: TrafficMoments, SimReps: 20, Seed: s}
	}
	theta := []float64{0.35, 0.5}
	// CRN: same seed every evaluation.
	crn := mkProblem(seed + 1)
	var crnVals, freeVals []float64
	for i := 0; i < 12; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		v, err := crn.J(theta)
		if err != nil {
			return Result{}, err
		}
		crnVals = append(crnVals, v)
		free := mkProblem(seed + 100 + uint64(i)) // fresh randomness per eval
		w, err := free.J(theta)
		if err != nil {
			return Result{}, err
		}
		freeVals = append(freeVals, w)
	}
	crnStd := stats.StdDev(crnVals)
	freeStd := stats.StdDev(freeVals)
	res := Result{
		ID:    "A2",
		Title: "Ablation: common random numbers in the MSM objective",
		Paper: "design choice: J(θ) is evaluated with a fixed simulation seed so the optimization surface is deterministic",
		Shape: "repeated J(θ) evaluations identical under CRN, noisy without",
		Rows: []Row{
			{Name: "J(θ) std under CRN (12 evals)", Value: crnStd, Unit: ""},
			{Name: "J(θ) std without CRN", Value: freeStd, Unit: ""},
			{Name: "J(θ) mean", Value: stats.Mean(freeVals), Unit: ""},
		},
	}
	// CRN repeats can differ in the last floating-point bits through
	// the mean computation; "identical" means orders of magnitude below
	// the free-randomness chatter.
	res.Verdict = freeStd > 0 && crnStd < freeStd*1e-9
	return res, nil
}

// runA3 ablates the RC reuse order: the paper's deterministic cycling
// produces a stratified sample of M1 outputs; reusing cached outputs by
// i.i.d. random draws instead inflates estimator variance.
func runA3(ctx context.Context, seed uint64) (Result, error) {
	const (
		n     = 64
		alpha = 0.25
		mN    = 16 // ⌈αn⌉
		reps  = 3000
	)
	parent := rng.New(seed)
	m1 := func(r *rng.Stream) float64 { return r.Normal(0, 1) }
	m2 := func(y1 float64, r *rng.Stream) float64 { return y1 + r.Normal(0, 0.3) }

	runOnce := func(randomReuse bool, r *rng.Stream) float64 {
		cache := make([]float64, mN)
		for i := range cache {
			cache[i] = m1(r.Split())
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			var y1 float64
			if randomReuse {
				y1 = cache[r.Intn(mN)]
			} else {
				y1 = cache[i%mN] // deterministic cycling: stratified
			}
			sum += m2(y1, r.Split())
		}
		return sum / n
	}
	var cyc, rnd []float64
	for i := 0; i < reps; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		cyc = append(cyc, runOnce(false, parent.Split()))
		rnd = append(rnd, runOnce(true, parent.Split()))
	}
	vc, vr := stats.Variance(cyc), stats.Variance(rnd)
	res := Result{
		ID:    "A3",
		Title: "Ablation: deterministic cycling vs random reuse in RC",
		Paper: "§2.3: 'the deterministic cycling scheme produces a stratified sample of the outputs of M1 and helps minimize estimator variance'",
		Shape: "cycling variance strictly below i.i.d. random reuse variance",
		Rows: []Row{
			{Name: "estimator variance, cycling", Value: vc, Unit: ""},
			{Name: "estimator variance, random reuse", Value: vr, Unit: ""},
			{Name: "variance inflation from random reuse", Value: vr / vc, Unit: "×"},
		},
	}
	res.Verdict = vc < vr
	return res, nil
}

// runA4 ablates the partitioned parallelism of the ABS self-join step.
// Wall-clock speedup is machine-dependent (this repository's CI may run
// on a single core), so the ablation measures the machine-independent
// properties that make the Wang et al. parallelization valid and
// worthwhile: (i) the step's output is bit-identical for any worker
// count (per-agent random streams are pre-split), and (ii) the
// partition structure leaves a small critical path — the achievable
// speedup bound Σwork / max-partition-work is large.
func runA4(ctx context.Context, seed uint64) (Result, error) {
	r := rng.New(seed)
	agents := engine.MustNewTable("agents", engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "pos", Type: engine.TypeFloat},
	})
	// ~60 partitions of ~50 agents: quadratic within-partition work.
	const nAgents = 3000
	for i := 0; i < nAgents; i++ {
		agents.MustInsert(engine.Int(int64(i)), engine.Float(r.Float64()*60))
	}
	mkStep := func(workers int) simsql.ABSStep {
		return simsql.ABSStep{
			PartKey:    func(row engine.Row) string { return fmt.Sprintf("%d", int(row[1].AsFloat())) },
			Near:       func(a, b engine.Row) bool { return true },
			Accumulate: func(acc float64, b engine.Row) float64 { return acc + b[1].AsFloat() },
			Update: func(a engine.Row, acc float64, n int, r *rng.Stream) engine.Row {
				pos := a[1].AsFloat()
				if n > 0 {
					pos += 0.5*(acc/float64(n)-pos) + r.Normal(0, 0.01)
				}
				return engine.Row{a[0], engine.Float(pos)}
			},
			Workers: workers,
		}
	}
	var outputs []*engine.Table
	for _, w := range []int{1, 2, 8} {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		out, err := mkStep(w).Apply(ctx, agents, seed)
		if err != nil {
			return Result{}, err
		}
		outputs = append(outputs, out)
	}
	same := true
	for _, out := range outputs[1:] {
		for i := range out.Rows {
			if !out.Rows[i][1].Equal(outputs[0].Rows[i][1]) {
				same = false
			}
		}
	}
	// Partition work profile: work(partition) = size², critical path =
	// max over partitions.
	sizes := make(map[int]int)
	for _, row := range agents.Rows {
		sizes[int(row[1].AsFloat())]++
	}
	parts := make([]int, 0, len(sizes))
	for p := range sizes {
		parts = append(parts, p)
	}
	sort.Ints(parts) // fold in fixed order: float sums round order-dependently
	total, maxWork := 0.0, 0.0
	for _, p := range parts {
		w := float64(sizes[p]) * float64(sizes[p])
		total += w
		if w > maxWork {
			maxWork = w
		}
	}
	bound := total / maxWork
	res := Result{
		ID:    "A4",
		Title: "Ablation: partitioned parallelism of the ABS self-join",
		Paper: "§2.1 (Wang et al.): 'the join can be parallelized among groups of agents ... to achieve good performance'",
		Shape: "output identical for any worker count; large achievable-speedup bound",
		Rows: []Row{
			{Name: "agents", Value: nAgents, Unit: ""},
			{Name: "partitions", Value: float64(len(sizes)), Unit: ""},
			{Name: "outputs identical across 1/2/8 workers", Value: b2f(same), Unit: "bool"},
			{Name: "achievable speedup bound Σw/max w", Value: bound, Unit: "×"},
		},
	}
	res.Verdict = same && bound > 8
	return res, nil
}
