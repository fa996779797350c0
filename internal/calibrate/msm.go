package calibrate

import (
	"errors"
	"fmt"

	"modeldata/internal/linalg"
	"modeldata/internal/rng"
	"modeldata/internal/stats"
)

// This file implements the Method of Simulated Moments (McFadden [41])
// as presented in §3.1: the moment map m(θ) = E[Y | θ] is too complex
// for analysis, so it is approximated by the average m̂(θ) of simulated
// statistic vectors, and θ is chosen to minimize the generalized
// distance J(θ) = GₙᵀWGₙ with Gₙ = Ȳₙ − m̂(θ). W is typically an
// estimate of the inverse variance-covariance matrix of Gₙ.

// MomentVector computes the empirical statistic vector
// (mean, variance, lag-1 autocovariance) of a series — a standard Y
// choice for MSM calibration of dynamic agent models.
func MomentVector(xs []float64) []float64 {
	out := []float64{stats.Mean(xs), stats.Variance(xs), 0}
	if len(xs) > 1 {
		out[2] = stats.Covariance(xs[:len(xs)-1], xs[1:])
	}
	return out
}

// ErrMSM wraps MSM configuration problems.
var ErrMSM = errors.New("calibrate: invalid MSM problem")

// MSM is a method-of-simulated-moments calibration problem.
type MSM struct {
	// Observed holds the empirical statistic vectors Y₁…Yₙ (each of
	// dimension m).
	Observed [][]float64
	// Simulate draws one statistic vector from the model at parameter
	// θ.
	Simulate func(theta []float64, r *rng.Stream) []float64
	// SimReps is the number of simulated draws averaged to form m̂(θ).
	// Default 50.
	SimReps int
	// Weight is W; nil means the identity. Use EstimateOptimalWeight
	// for the efficiency-boosting inverse-covariance choice.
	Weight *linalg.Matrix
	// Seed fixes the simulation randomness. J(θ) uses common random
	// numbers across evaluations (the same seed every call), which
	// removes simulation chatter from the optimization surface — the
	// standard trick that makes Nelder-Mead workable here.
	Seed uint64
	// Ridge is an optional L2 regularization coefficient added to J as
	// Ridge·‖θ − θ₀‖², the §3.1 suggestion for combating calibration
	// overfitting; theta0 is the point passed to Calibrate.
	Ridge float64

	ridgeCenter []float64
	ybar        []float64
}

func (p *MSM) dims() (n, m int, err error) {
	if len(p.Observed) == 0 || p.Simulate == nil {
		return 0, 0, fmt.Errorf("%w: need observations and a simulator", ErrMSM)
	}
	m = len(p.Observed[0])
	for i, y := range p.Observed {
		if len(y) != m {
			return 0, 0, fmt.Errorf("%w: observation %d has %d stats, want %d", ErrMSM, i, len(y), m)
		}
	}
	return len(p.Observed), m, nil
}

// observedMean computes Ȳₙ once.
func (p *MSM) observedMean() ([]float64, error) {
	if p.ybar != nil {
		return p.ybar, nil
	}
	n, m, err := p.dims()
	if err != nil {
		return nil, err
	}
	ybar := make([]float64, m)
	for _, y := range p.Observed {
		for j, v := range y {
			ybar[j] += v / float64(n)
		}
	}
	p.ybar = ybar
	return ybar, nil
}

// SimulatedMean computes m̂(θ) by averaging SimReps simulated draws
// with common random numbers.
func (p *MSM) SimulatedMean(theta []float64) ([]float64, error) {
	_, m, err := p.dims()
	if err != nil {
		return nil, err
	}
	reps := p.SimReps
	if reps <= 0 {
		reps = 50
	}
	r := rng.New(p.Seed)
	mean := make([]float64, m)
	for k := 0; k < reps; k++ {
		y := p.Simulate(theta, r.Split())
		if len(y) != m {
			return nil, fmt.Errorf("%w: simulator returned %d stats, want %d", ErrMSM, len(y), m)
		}
		for j, v := range y {
			mean[j] += v / float64(reps)
		}
	}
	return mean, nil
}

// J evaluates the generalized distance J(θ) = GᵀWG (+ ridge penalty).
func (p *MSM) J(theta []float64) (float64, error) {
	ybar, err := p.observedMean()
	if err != nil {
		return 0, err
	}
	mhat, err := p.SimulatedMean(theta)
	if err != nil {
		return 0, err
	}
	g := linalg.Sub(ybar, mhat)
	var j float64
	if p.Weight == nil {
		j = linalg.Dot(g, g)
	} else {
		wg, err := p.Weight.MulVec(g)
		if err != nil {
			return 0, err
		}
		j = linalg.Dot(g, wg)
	}
	if p.Ridge > 0 && p.ridgeCenter != nil {
		d := linalg.Sub(theta, p.ridgeCenter)
		j += p.Ridge * linalg.Dot(d, d)
	}
	return j, nil
}

// EstimateOptimalWeight sets W to the inverse of the sample variance-
// covariance matrix of the observed statistic vectors (scaled by n, the
// covariance of Gₙ = Ȳₙ − m(θ) under the model), the standard
// efficiency-boosting choice [20]. A small ridge is added to keep the
// inverse stable.
func (p *MSM) EstimateOptimalWeight() error {
	n, m, err := p.dims()
	if err != nil {
		return err
	}
	if n < 2 {
		return fmt.Errorf("%w: need ≥ 2 observations for a covariance", ErrMSM)
	}
	ybar, err := p.observedMean()
	if err != nil {
		return err
	}
	cov := linalg.NewMatrix(m, m)
	for _, y := range p.Observed {
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				cov.Set(a, b, cov.At(a, b)+(y[a]-ybar[a])*(y[b]-ybar[b])/float64(n-1))
			}
		}
	}
	// Cov(Ȳₙ) = Cov(Y)/n; regularize the diagonal before inverting.
	for a := 0; a < m; a++ {
		cov.Set(a, a, cov.At(a, a)+1e-9)
	}
	covMean := cov.Scale(1 / float64(n))
	w, err := linalg.Inverse(covMean)
	if err != nil {
		return fmt.Errorf("calibrate: weight matrix: %w", err)
	}
	p.Weight = w
	return nil
}

// Calibrate minimizes J(θ) from theta0 with Nelder-Mead.
func (p *MSM) Calibrate(theta0 []float64, opts NMOptions) (NMResult, error) {
	if _, _, err := p.dims(); err != nil {
		return NMResult{}, err
	}
	p.ridgeCenter = append([]float64(nil), theta0...)
	var evalErr error
	res, err := NelderMead(func(theta []float64) float64 {
		j, err := p.J(theta)
		if err != nil {
			evalErr = err
			return 1e300
		}
		return j
	}, theta0, opts)
	if evalErr != nil {
		return res, evalErr
	}
	return res, err
}

// CalibrateGrid minimizes J(θ) over a parameter grid (the random/grid
// sampling baseline of §3.1).
func (p *MSM) CalibrateGrid(grid [][]float64) (NMResult, error) {
	if _, _, err := p.dims(); err != nil {
		return NMResult{}, err
	}
	var evalErr error
	res, err := GridSearch(func(theta []float64) float64 {
		j, err := p.J(theta)
		if err != nil {
			evalErr = err
			return 1e300
		}
		return j
	}, grid)
	if evalErr != nil {
		return res, evalErr
	}
	return res, err
}
