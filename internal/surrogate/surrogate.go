// Package surrogate implements kriging-assisted stochastic
// optimization — the §3.1 research direction the paper spells out:
// "the kriging method used in [45] could potentially be replaced by
// stochastic kriging and extensions ... which incorporate simulation
// variability into the fitting algorithm." A noisy objective (for
// calibration, the MSM distance J(θ)) is evaluated with replications
// at a space-filling design; a stochastic-kriging metamodel is fitted
// with the measured per-point noise; the surrogate's argmin is
// evaluated and added to the design; and the loop repeats — a simple
// sequential-design optimizer in the EGO family.
package surrogate

import (
	"errors"
	"fmt"
	"math"

	"modeldata/internal/calibrate"
	"modeldata/internal/metamodel"
	"modeldata/internal/rng"
	"modeldata/internal/stats"
)

// Common errors.
var (
	ErrBadProblem = errors.New("surrogate: invalid problem")
	ErrBadDesign  = errors.New("surrogate: invalid design")
)

// Problem is a noisy minimization problem over a box domain.
type Problem struct {
	// Objective evaluates the noisy objective at x.
	Objective func(x []float64, r *rng.Stream) float64
	// Lo and Hi bound the domain per dimension.
	Lo, Hi []float64
	// Reps is the number of replications averaged per evaluated point
	// (also the source of the stochastic-kriging noise estimates).
	// Default 5.
	Reps int
	// Seed drives all randomness.
	Seed uint64
}

func (p *Problem) validate() error {
	if p.Objective == nil || len(p.Lo) == 0 || len(p.Lo) != len(p.Hi) {
		return fmt.Errorf("%w: objective and matching bounds required", ErrBadProblem)
	}
	for d := range p.Lo {
		if p.Lo[d] >= p.Hi[d] {
			return fmt.Errorf("%w: dimension %d bounds [%g, %g]", ErrBadProblem, d, p.Lo[d], p.Hi[d])
		}
	}
	return nil
}

// Result reports a surrogate optimization run.
type Result struct {
	X []float64
	// Evals counts objective invocations (replications included).
	Evals int
}

// point is one evaluated design point.
type point struct {
	x        []float64
	mean     float64
	noiseVar float64 // variance of the mean = s²/reps
}

// Minimize runs the sequential stochastic-kriging loop: it evaluates
// the initial design (coded rows in [0, 1] per dimension scale onto
// [Lo, Hi]), then for `iters` rounds refits the metamodel, probes the
// surrogate argmin over a per-dimension grid of `gridPer` candidates,
// evaluates it, and adds it to the design. It returns the best
// evaluated point.
func (p *Problem) Minimize(design [][]float64, gridPer, iters int) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if len(design) < 4 {
		return Result{}, fmt.Errorf("%w: need ≥ 4 initial points, got %d", ErrBadDesign, len(design))
	}
	if gridPer < 2 {
		gridPer = 11
	}
	reps := p.Reps
	if reps <= 0 {
		reps = 5
	}
	r := rng.New(p.Seed)
	dim := len(p.Lo)

	var res Result
	evaluate := func(x []float64) (point, error) {
		vals := make([]float64, reps)
		for i := range vals {
			vals[i] = p.Objective(x, r.Split())
			res.Evals++
		}
		return point{
			x:        append([]float64(nil), x...),
			mean:     stats.Mean(vals),
			noiseVar: stats.Variance(vals) / float64(reps),
		}, nil
	}

	var pts []point
	for i, row := range design {
		if len(row) != dim {
			return Result{}, fmt.Errorf("%w: row %d has %d coordinates for %d dims", ErrBadDesign, i, len(row), dim)
		}
		x := make([]float64, dim)
		for d, c := range row {
			if c < 0 || c > 1 {
				return Result{}, fmt.Errorf("%w: coded value %g outside [0,1]", ErrBadDesign, c)
			}
			x[d] = p.Lo[d] + c*(p.Hi[d]-p.Lo[d])
		}
		pt, err := evaluate(x)
		if err != nil {
			return Result{}, err
		}
		pts = append(pts, pt)
	}

	for iter := 0; iter < iters; iter++ {
		xs := make([][]float64, len(pts))
		ys := make([]float64, len(pts))
		nv := make([]float64, len(pts))
		for i, pt := range pts {
			xs[i] = pt.x
			ys[i] = pt.mean
			nv[i] = pt.noiseVar
		}
		gp, err := metamodel.FitGPMLE(xs, ys, nv, calibrate.NMOptions{MaxEvals: 200})
		if err != nil {
			return Result{}, fmt.Errorf("surrogate: metamodel fit: %w", err)
		}
		// Probe the surrogate argmin on a grid (random offsets avoid
		// re-probing the identical lattice every round).
		best := make([]float64, dim)
		bestVal := math.Inf(1)
		offset := r.Float64() / float64(gridPer)
		var scan func(d int, x []float64) error
		scan = func(d int, x []float64) error {
			if d == dim {
				v, err := gp.Predict(x)
				if err != nil {
					return err
				}
				if v < bestVal {
					bestVal = v
					copy(best, x)
				}
				return nil
			}
			for g := 0; g < gridPer; g++ {
				frac := (float64(g) + offset) / float64(gridPer)
				x[d] = p.Lo[d] + frac*(p.Hi[d]-p.Lo[d])
				if err := scan(d+1, x); err != nil {
					return err
				}
			}
			return nil
		}
		if err := scan(0, make([]float64, dim)); err != nil {
			return Result{}, err
		}
		pt, err := evaluate(best)
		if err != nil {
			return Result{}, err
		}
		pts = append(pts, pt)
	}

	// Best evaluated point wins.
	bi := 0
	for i, pt := range pts {
		if pt.mean < pts[bi].mean {
			bi = i
		}
	}
	res.X = pts[bi].x
	return res, nil
}
