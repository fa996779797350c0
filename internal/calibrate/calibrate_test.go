package calibrate

import (
	"errors"
	"math"
	"testing"

	"modeldata/internal/rng"
)

func TestNelderMeadQuadratic(t *testing.T) {
	// min (x−3)² + (y+1)².
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	res, err := NelderMead(f, []float64{0, 0}, NMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals >= 2000 {
		t.Fatalf("spent the whole %d-evaluation budget", res.Evals)
	}
	if math.Abs(res.X[0]-3) > 1e-4 || math.Abs(res.X[1]+1) > 1e-4 {
		t.Fatalf("argmin = %v", res.X)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := NelderMead(f, []float64{-1.2, 1}, NMOptions{MaxEvals: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("Rosenbrock argmin = %v (f=%g)", res.X, res.F)
	}
}

func TestNelderMeadBudget(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 { calls++; return x[0] * x[0] }
	res, err := NelderMead(f, []float64{100}, NMOptions{MaxEvals: 10})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 10 || res.Evals != calls {
		t.Fatalf("made %d calls (reported %d) on budget 10", calls, res.Evals)
	}
	if _, err := NelderMead(f, nil, NMOptions{}); !errors.Is(err, ErrBadStart) {
		t.Fatalf("got %v", err)
	}
}

// TestNelderMeadStaysWithinBudget holds every run to MaxEvals: an
// expansion, or a contraction followed by a shrink, must not carry the
// last iteration past the budget. A budget smaller than the initial
// simplex is refused.
func TestNelderMeadStaysWithinBudget(t *testing.T) {
	for _, n := range []int{1, 3, 6} {
		for _, budget := range []int{5, 10, 17, 40} {
			calls := 0
			f := func(x []float64) float64 {
				calls++
				s := 0.0
				for i, v := range x {
					s += float64(i+1) * (v - 1) * (v - 1)
				}
				return s
			}
			x0 := make([]float64, n)
			for i := range x0 {
				x0[i] = 50
			}
			res, err := NelderMead(f, x0, NMOptions{MaxEvals: budget})
			if budget < n+1 {
				if !errors.Is(err, ErrMaxEvals) || calls != 0 {
					t.Errorf("n=%d budget=%d: err = %v after %d calls, want ErrMaxEvals before any", n, budget, err, calls)
				}
				continue
			}
			if err != nil {
				t.Fatalf("n=%d budget=%d: %v", n, budget, err)
			}
			if calls > budget || res.Evals != calls {
				t.Errorf("n=%d budget=%d: %d calls, %d reported", n, budget, calls, res.Evals)
			}
			if res.F != f(res.X) {
				t.Errorf("n=%d budget=%d: F = %g is not f(X) = %g", n, budget, res.F, f(res.X))
			}
		}
	}
}

func TestGridSearch(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-2)*(x[0]-2) + (x[1]-5)*(x[1]-5)
	}
	res, err := GridSearch(f, [][]float64{{0, 1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 2 || res.X[1] != 5 || res.Evals != 12 {
		t.Fatalf("grid result = %+v", res)
	}
	if _, err := GridSearch(f, nil); !errors.Is(err, ErrBadStart) {
		t.Fatalf("got %v", err)
	}
	if _, err := GridSearch(f, [][]float64{{1}, {}}); !errors.Is(err, ErrBadBounds) {
		t.Fatalf("got %v", err)
	}
}

func TestMomentVector(t *testing.T) {
	mv := MomentVector([]float64{1, 2, 3, 4})
	if mv[0] != 2.5 {
		t.Fatalf("mean = %g", mv[0])
	}
	if len(MomentVector([]float64{5})) != 3 {
		t.Fatal("singleton moment vector")
	}
}

// herdingSim is a small stochastic AR(1)-style "herding" model with
// parameters θ = (drift a, noise σ); the MSM tests recover θ from its
// moment signature.
func herdingSim(theta []float64, r *rng.Stream) []float64 {
	a, sigma := theta[0], math.Abs(theta[1])
	if a > 0.99 {
		a = 0.99
	}
	if a < -0.99 {
		a = -0.99
	}
	x := 0.0
	xs := make([]float64, 150)
	for i := range xs {
		x = a*x + r.Normal(0, sigma)
		xs[i] = x
	}
	return MomentVector(xs)
}

func buildMSMProblem(t *testing.T, trueTheta []float64) *MSM {
	t.Helper()
	r := rng.New(101)
	obs := make([][]float64, 60)
	for i := range obs {
		obs[i] = herdingSim(trueTheta, r.Split())
	}
	return &MSM{
		Observed: obs,
		Simulate: herdingSim,
		SimReps:  60,
		Seed:     55,
	}
}

func TestMSMCalibrationRecoversTheta(t *testing.T) {
	trueTheta := []float64{0.7, 0.5}
	p := buildMSMProblem(t, trueTheta)
	if err := p.EstimateOptimalWeight(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Calibrate([]float64{0.3, 1.0}, NMOptions{MaxEvals: 400, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.7) > 0.12 || math.Abs(math.Abs(res.X[1])-0.5) > 0.12 {
		t.Fatalf("MSM θ̂ = %v, want ≈ %v (J=%g)", res.X, trueTheta, res.F)
	}
}

func TestMSMGridVsNelderMead(t *testing.T) {
	trueTheta := []float64{0.6, 0.8}
	p := buildMSMProblem(t, trueTheta)
	grid := [][]float64{
		{0.2, 0.4, 0.6, 0.8},
		{0.4, 0.8, 1.2},
	}
	gres, err := p.CalibrateGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Evals != 12 {
		t.Fatalf("grid evals = %d", gres.Evals)
	}
	if math.Abs(gres.X[0]-0.6) > 0.21 || math.Abs(gres.X[1]-0.8) > 0.41 {
		t.Fatalf("grid θ̂ = %v", gres.X)
	}
	nres, err := p.Calibrate([]float64{0.4, 1.2}, NMOptions{MaxEvals: 300})
	if err != nil {
		t.Fatal(err)
	}
	jGrid, err := p.J(gres.X)
	if err != nil {
		t.Fatal(err)
	}
	jNM, err := p.J(nres.X)
	if err != nil {
		t.Fatal(err)
	}
	if jNM > jGrid+1e-9 {
		t.Fatalf("Nelder-Mead J=%g worse than grid J=%g", jNM, jGrid)
	}
}

func TestMSMJDeterministic(t *testing.T) {
	p := buildMSMProblem(t, []float64{0.5, 0.5})
	j1, err := p.J([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := p.J([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("J not deterministic under common random numbers")
	}
}

func TestMSMRidgePenalty(t *testing.T) {
	p := buildMSMProblem(t, []float64{0.5, 0.5})
	p.Ridge = 1000
	res, err := p.Calibrate([]float64{0.5, 0.5}, NMOptions{MaxEvals: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Heavy ridge anchors θ̂ near the starting point.
	if math.Abs(res.X[0]-0.5) > 0.1 || math.Abs(res.X[1]-0.5) > 0.1 {
		t.Fatalf("ridge ignored: θ̂ = %v", res.X)
	}
}

func TestMSMValidation(t *testing.T) {
	var p MSM
	if _, err := p.J([]float64{1}); !errors.Is(err, ErrMSM) {
		t.Fatalf("got %v", err)
	}
	p2 := &MSM{
		Observed: [][]float64{{1, 2}, {3}},
		Simulate: func([]float64, *rng.Stream) []float64 { return nil },
	}
	if _, err := p2.J([]float64{1}); !errors.Is(err, ErrMSM) {
		t.Fatalf("ragged observations: got %v", err)
	}
	p3 := &MSM{
		Observed: [][]float64{{1, 2}},
		Simulate: func([]float64, *rng.Stream) []float64 { return []float64{1} },
	}
	if _, err := p3.J([]float64{1}); !errors.Is(err, ErrMSM) {
		t.Fatalf("wrong simulator arity: got %v", err)
	}
	if err := p3.EstimateOptimalWeight(); !errors.Is(err, ErrMSM) {
		t.Fatalf("single obs weight: got %v", err)
	}
}
