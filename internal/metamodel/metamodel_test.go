package metamodel

import (
	"errors"
	"math"
	"slices"
	"testing"

	"modeldata/internal/calibrate"
	"modeldata/internal/rng"
)

func TestTermSets(t *testing.T) {
	terms := termSets(3, 2)
	// {}, {0},{1},{2}, {0,1},{0,2},{1,2} = 7 terms.
	if len(terms) != 7 {
		t.Fatalf("terms = %v", terms)
	}
	full := termSets(3, 3)
	if len(full) != 8 {
		t.Fatalf("full terms = %d", len(full))
	}
}

func TestFitPolynomialRecoversCoefficients(t *testing.T) {
	// y = 2 + 3x₁ − x₂ + 0.5x₁x₂ (+ tiny noise).
	r := rng.New(1)
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		p := []float64{r.Normal(0, 1), r.Normal(0, 1)}
		x = append(x, p)
		y = append(y, 2+3*p[0]-p[1]+0.5*p[0]*p[1]+r.Normal(0, 0.01))
	}
	m, err := FitPolynomial(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b0 := coefficient(m); math.Abs(b0-2) > 0.02 {
		t.Fatalf("β₀ = %g", b0)
	}
	me := m.MainEffects()
	if math.Abs(me[0]-3) > 0.02 || math.Abs(me[1]+1) > 0.02 {
		t.Fatalf("main effects = %v", me)
	}
	if b12 := coefficient(m, 0, 1); math.Abs(b12-0.5) > 0.02 {
		t.Fatalf("β₁₂ = %g", b12)
	}
}

// coefficient returns the fitted coefficient of the term over the
// given sorted variable indexes, or NaN if the model has no such term.
func coefficient(m *Polynomial, vars ...int) float64 {
	for j, term := range m.Terms {
		if slices.Equal(term, vars) {
			return m.Beta[j]
		}
	}
	return math.NaN()
}

func TestFitPolynomialValidation(t *testing.T) {
	if _, err := FitPolynomial(nil, nil, 1); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
	x := [][]float64{{1, 2}, {3, 4}}
	if _, err := FitPolynomial(x, []float64{1, 2}, 5); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("got %v", err)
	}
	// 2 runs cannot identify 4 terms of an order-2 model in 2 factors.
	if _, err := FitPolynomial(x, []float64{1, 2}, 2); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
}

func gpTestData(r *rng.Stream, n int) ([][]float64, []float64) {
	f := func(p []float64) float64 {
		return math.Sin(3*p[0]) + 0.5*math.Cos(2*p[1])
	}
	var x [][]float64
	var y []float64
	for i := 0; i < n; i++ {
		p := []float64{r.Float64() * 2, r.Float64() * 2}
		x = append(x, p)
		y = append(y, f(p))
	}
	return x, y
}

func TestGPInterpolatesDesignPoints(t *testing.T) {
	// The key property of Eq. (6): Ŷ(xᵢ) = Y(xᵢ) at every design point.
	r := rng.New(2)
	x, y := gpTestData(r, 30)
	gp, err := FitGP(x, y, []float64{5, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, xi := range x {
		pred, err := gp.Predict(xi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pred-y[i]) > 1e-5 {
			t.Fatalf("GP does not interpolate: Ŷ(x%d)=%g, Y=%g", i, pred, y[i])
		}
	}
}

func TestGPPredictsBetweenPoints(t *testing.T) {
	r := rng.New(3)
	x, y := gpTestData(r, 80)
	gp, err := FitGP(x, y, []float64{5, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(p []float64) float64 {
		return math.Sin(3*p[0]) + 0.5*math.Cos(2*p[1])
	}
	maxErr := 0.0
	for i := 0; i < 50; i++ {
		p := []float64{r.Float64()*1.8 + 0.1, r.Float64()*1.8 + 0.1}
		pred, err := gp.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(pred - f(p)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.15 {
		t.Fatalf("GP max interpolation error = %g", maxErr)
	}
}

func TestStochasticKrigingSmooths(t *testing.T) {
	// Noisy observations of a constant function: stochastic kriging
	// should NOT interpolate the noise; deterministic kriging does.
	r := rng.New(4)
	var x [][]float64
	var yNoisy []float64
	var noise []float64
	for i := 0; i < 20; i++ {
		x = append(x, []float64{float64(i) / 5})
		yNoisy = append(yNoisy, 5+r.Normal(0, 0.5))
		noise = append(noise, 0.25)
	}
	det, err := FitGP(x, yNoisy, []float64{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := FitStochasticKriging(x, yNoisy, noise, []float64{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	detErr, skErr := 0.0, 0.0
	for i, xi := range x {
		dp, _ := det.Predict(xi)
		sp, _ := sk.Predict(xi)
		detErr += math.Abs(dp - yNoisy[i])
		skErr += math.Abs(sp - 5)
	}
	// Dense design points make Σ_M nearly singular, so allow a small
	// numerical interpolation slack for the deterministic fit.
	if detErr/20 > 0.01 {
		t.Fatalf("deterministic kriging failed to interpolate noise: mean %g", detErr/20)
	}
	if skErr/20 > 0.3 {
		t.Fatalf("stochastic kriging mean error vs truth = %g", skErr/20)
	}
	// Stochastic kriging must be visibly smoother than the
	// interpolating fit is faithful to the noise.
	if skErr < detErr {
		t.Logf("note: skErr=%g detErr=%g", skErr, detErr)
	}
}

func TestFitGPValidation(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []float64{1, 2}
	if _, err := FitGP(nil, nil, nil, 1); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
	if _, err := FitGP(x, y, []float64{1, 2}, 1); !errors.Is(err, ErrDims) {
		t.Fatalf("got %v", err)
	}
	if _, err := FitGP(x, y, []float64{1}, -1); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
	if _, err := FitStochasticKriging(x, y, []float64{1}, []float64{1}, 1); !errors.Is(err, ErrDims) {
		t.Fatalf("got %v", err)
	}
	if _, err := FitStochasticKriging(x, y, []float64{1, -2}, []float64{1}, 1); !errors.Is(err, ErrBadDesign) {
		t.Fatalf("got %v", err)
	}
	gp, err := FitGP(x, y, []float64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gp.Predict([]float64{1, 2}); !errors.Is(err, ErrDims) {
		t.Fatalf("got %v", err)
	}
}

func TestFitGPMLEFindsInactiveFactor(t *testing.T) {
	// Response depends only on x₁; MLE should drive θ₂ far below θ₁.
	r := rng.New(5)
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		p := []float64{r.Float64() * 2, r.Float64() * 2}
		x = append(x, p)
		y = append(y, math.Sin(3*p[0]))
	}
	gp, err := FitGPMLE(x, y, nil, calibrate.NMOptions{MaxEvals: 400})
	if err != nil {
		t.Fatal(err)
	}
	if gp.Theta[1] > gp.Theta[0]/10 {
		t.Fatalf("θ = %v: inactive factor not detected", gp.Theta)
	}
	// The fitted surface should still predict well.
	pred, err := gp.Predict([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-math.Sin(3)) > 0.1 {
		t.Fatalf("MLE-fitted GP prediction error: %g vs %g", pred, math.Sin(3))
	}
}

func TestThetaImportanceByGap(t *testing.T) {
	// Active sensitivities separated from collapsed ones by a huge
	// log-scale gap.
	theta := []float64{1e-14, 0.2, 1e-27, 1e-251, 0.002, 1e-19}
	got := ThetaImportanceByGap(theta, 0)
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("important = %v, want [1 4]", got)
	}
	// All within one decade: everything important.
	flat := []float64{1, 2, 3}
	if got := ThetaImportanceByGap(flat, 0); len(got) != 3 {
		t.Fatalf("flat = %v", got)
	}
	if ThetaImportanceByGap(nil, 0) != nil {
		t.Fatal("nil theta")
	}
	// Explicit floor keeps sub-floor values from creating fake gaps.
	floored := ThetaImportanceByGap([]float64{1e-300, 1e-250, 5}, 1e-12)
	if len(floored) != 1 || floored[0] != 2 {
		t.Fatalf("floored = %v", floored)
	}
}
