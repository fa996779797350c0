package metamodel

import (
	"fmt"
	"math"
	"sort"

	"modeldata/internal/calibrate"
	"modeldata/internal/linalg"
)

// GP is a Gaussian-process metamodel Y(x) = β₀ + M(x) with the paper's
// product-exponential covariance (Eq. 5):
//
//	Σ_M(xᵢ, xⱼ) = τ²·Π_k exp(−θ_k·(x_{i,k} − x_{j,k})²).
//
// For deterministic simulations the predictor (Eq. 6) interpolates the
// design points exactly; StochasticKriging adds per-design-point
// simulation noise Σ_ε so the predictor smooths instead.
type GP struct {
	X     [][]float64 // design points
	Beta0 float64
	Tau2  float64
	Theta []float64
	// alpha = [Σ_M + Σ_ε]⁻¹ (ȳ − β₀·1), precomputed at fit time.
	alpha []float64
}

// Cov evaluates the Eq. (5) covariance between two inputs.
func (g *GP) Cov(a, b []float64) float64 {
	s := 0.0
	for k := range a {
		d := a[k] - b[k]
		s += g.Theta[k] * d * d
	}
	return g.Tau2 * math.Exp(-s)
}

// FitGP fits a deterministic (interpolating) kriging metamodel with
// the given hyperparameters: β₀ is estimated by generalized least
// squares and the predictor weights are precomputed.
func FitGP(x [][]float64, y []float64, theta []float64, tau2 float64) (*GP, error) {
	return fitGP(x, y, theta, tau2, nil)
}

// FitStochasticKriging fits the stochastic-kriging variant of
// Ankenman, Nelson & Staum: y are the per-design-point averages over
// Monte Carlo replications and noiseVar[i] = V(xᵢ)/nᵢ is the variance
// of that average. The predictor uses [Σ_M + Σ_ε]⁻¹ and no longer
// interpolates.
func FitStochasticKriging(x [][]float64, y, noiseVar []float64, theta []float64, tau2 float64) (*GP, error) {
	if len(noiseVar) != len(x) {
		return nil, fmt.Errorf("%w: %d noise variances for %d design points", ErrDims, len(noiseVar), len(x))
	}
	return fitGP(x, y, theta, tau2, noiseVar)
}

func fitGP(x [][]float64, y, theta []float64, tau2 float64, noiseVar []float64) (*GP, error) {
	r := len(x)
	if r == 0 || len(y) != r {
		return nil, fmt.Errorf("%w: %d design points, %d responses", ErrBadDesign, r, len(y))
	}
	n := len(x[0])
	if len(theta) != n {
		return nil, fmt.Errorf("%w: %d thetas for %d factors", ErrDims, len(theta), n)
	}
	if tau2 <= 0 {
		return nil, fmt.Errorf("%w: τ² = %g", ErrBadDesign, tau2)
	}
	g := &GP{X: x, Tau2: tau2, Theta: append([]float64(nil), theta...)}
	// Build Σ = Σ_M (+ Σ_ε) with a tiny jitter for conditioning.
	sigma := linalg.NewMatrix(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			sigma.Set(i, j, g.Cov(x[i], x[j]))
		}
		sigma.Set(i, i, sigma.At(i, i)+1e-10)
		if noiseVar != nil {
			if noiseVar[i] < 0 {
				return nil, fmt.Errorf("%w: negative noise variance at %d", ErrBadDesign, i)
			}
			sigma.Set(i, i, sigma.At(i, i)+noiseVar[i])
		}
	}
	chol, err := linalg.Cholesky(sigma)
	if err != nil {
		return nil, fmt.Errorf("metamodel: covariance factorization: %w", err)
	}
	// GLS estimate of β₀: (1ᵀΣ⁻¹y)/(1ᵀΣ⁻¹1).
	ones := make([]float64, r)
	for i := range ones {
		ones[i] = 1
	}
	si1, err := linalg.CholeskySolve(chol, ones)
	if err != nil {
		return nil, err
	}
	siy, err := linalg.CholeskySolve(chol, y)
	if err != nil {
		return nil, err
	}
	g.Beta0 = linalg.Dot(ones, siy) / linalg.Dot(ones, si1)
	resid := make([]float64, r)
	for i := range resid {
		resid[i] = y[i] - g.Beta0
	}
	g.alpha, err = linalg.CholeskySolve(chol, resid)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Predict evaluates the Eq. (6) optimal predictor
// Ŷ(x₀) = β₀ + Σ_M(x₀,·)ᵀ[Σ]⁻¹(ȳ − β₀·1).
func (g *GP) Predict(x0 []float64) (float64, error) {
	if len(x0) != len(g.X[0]) {
		return 0, fmt.Errorf("%w: point has %d factors, want %d", ErrDims, len(x0), len(g.X[0]))
	}
	s := g.Beta0
	for i, xi := range g.X {
		s += g.Cov(x0, xi) * g.alpha[i]
	}
	return s, nil
}

// FitGPMLE selects the GP hyperparameters (θ, τ²) by maximizing the
// profile log likelihood of the design data with Nelder-Mead over log
// hyperparameters, then fits the GP. For stochastic data pass noiseVar
// (nil for deterministic kriging).
func FitGPMLE(x [][]float64, y []float64, noiseVar []float64, opts calibrate.NMOptions) (*GP, error) {
	r := len(x)
	if r == 0 || len(y) != r {
		return nil, fmt.Errorf("%w: %d design points, %d responses", ErrBadDesign, r, len(y))
	}
	n := len(x[0])
	negLL := func(logParams []float64) float64 {
		theta := make([]float64, n)
		for j := range theta {
			theta[j] = math.Exp(logParams[j])
		}
		tau2 := math.Exp(logParams[n])
		ll, err := gpLogLikelihood(x, y, theta, tau2, noiseVar)
		if err != nil {
			return 1e300
		}
		return -ll
	}
	start := make([]float64, n+1)
	for j := range start {
		start[j] = 0 // θ = 1, τ² = 1
	}
	res, err := calibrate.NelderMead(negLL, start, opts)
	if err != nil {
		return nil, err
	}
	theta := make([]float64, n)
	for j := range theta {
		theta[j] = math.Exp(res.X[j])
	}
	tau2 := math.Exp(res.X[n])
	return fitGP(x, y, theta, tau2, noiseVar)
}

// gpLogLikelihood evaluates the multivariate normal log likelihood of
// the responses under the GP prior with the given hyperparameters.
func gpLogLikelihood(x [][]float64, y, theta []float64, tau2 float64, noiseVar []float64) (float64, error) {
	g := &GP{Tau2: tau2, Theta: theta}
	r := len(x)
	sigma := linalg.NewMatrix(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			sigma.Set(i, j, g.Cov(x[i], x[j]))
		}
		sigma.Set(i, i, sigma.At(i, i)+1e-10)
		if noiseVar != nil {
			sigma.Set(i, i, sigma.At(i, i)+noiseVar[i])
		}
	}
	chol, err := linalg.Cholesky(sigma)
	if err != nil {
		return 0, err
	}
	ones := make([]float64, r)
	for i := range ones {
		ones[i] = 1
	}
	si1, err := linalg.CholeskySolve(chol, ones)
	if err != nil {
		return 0, err
	}
	siy, err := linalg.CholeskySolve(chol, y)
	if err != nil {
		return 0, err
	}
	beta0 := linalg.Dot(ones, siy) / linalg.Dot(ones, si1)
	resid := make([]float64, r)
	for i := range resid {
		resid[i] = y[i] - beta0
	}
	sir, err := linalg.CholeskySolve(chol, resid)
	if err != nil {
		return 0, err
	}
	quad := linalg.Dot(resid, sir)
	logDet := 0.0
	for i := 0; i < r; i++ {
		logDet += 2 * math.Log(chol.At(i, i))
	}
	return -0.5 * (quad + logDet + float64(r)*math.Log(2*math.Pi)), nil
}

// ThetaImportanceByGap classifies factors by the largest gap in the
// sorted log-sensitivities: MLE-fitted θ values for inactive factors
// collapse toward zero across many orders of magnitude, so a fixed
// threshold is brittle while the log-scale gap between the active and
// inactive groups is enormous. Values below floor are clamped before
// the gap analysis (floor ≤ 0 selects 1e-12). If all θ are within one
// decade, every factor is reported important.
func ThetaImportanceByGap(theta []float64, floor float64) []int {
	if len(theta) == 0 {
		return nil
	}
	if floor <= 0 {
		floor = 1e-12
	}
	type entry struct {
		idx int
		lg  float64
	}
	entries := make([]entry, len(theta))
	for i, v := range theta {
		if v < floor {
			v = floor
		}
		entries[i] = entry{idx: i, lg: math.Log10(v)}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].lg < entries[b].lg })
	// Largest adjacent gap in sorted log space.
	gapAt, gapSize := -1, 1.0 // require at least one decade
	for i := 1; i < len(entries); i++ {
		if g := entries[i].lg - entries[i-1].lg; g > gapSize {
			gapSize = g
			gapAt = i
		}
	}
	if gapAt < 0 {
		out := make([]int, len(theta))
		for i := range out {
			out[i] = i
		}
		return out
	}
	var out []int
	for _, e := range entries[gapAt:] {
		out = append(out, e.idx)
	}
	sort.Ints(out)
	return out
}
