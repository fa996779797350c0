// Package calibrate implements the model-calibration toolkit of §3.1
// of the paper: the method of simulated moments (MSM) with a
// generalized-distance objective J(θ) = GᵀWG, and the derivative-free
// optimizers (Nelder-Mead simplex, grid search) that the agent-based-
// model calibration literature relies on.
package calibrate

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Optimization errors.
var (
	ErrBadStart  = errors.New("calibrate: empty starting point")
	ErrMaxEvals  = errors.New("calibrate: objective evaluation budget exhausted")
	ErrBadBounds = errors.New("calibrate: invalid parameter bounds")
)

// NMOptions tune the Nelder-Mead simplex search.
type NMOptions struct {
	// MaxEvals bounds objective evaluations. Default 2000. It must
	// cover the initial simplex: len(x0)+1 evaluations.
	MaxEvals int
	// Tol stops when the simplex function-value spread falls below it.
	// Default 1e-9.
	Tol float64
	// Step is the initial simplex size relative to |x0| (absolute for
	// zero coordinates). Default 0.1.
	Step float64
}

func (o NMOptions) withDefaults() NMOptions {
	if o.MaxEvals <= 0 {
		o.MaxEvals = 2000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.Step <= 0 {
		o.Step = 0.1
	}
	return o
}

// NMResult reports a Nelder-Mead run.
type NMResult struct {
	X     []float64
	F     float64
	Evals int
}

// NelderMead minimizes f starting from x0 using the Nelder-Mead simplex
// method (the heuristic optimizer Fabretti [17] applies to ABM
// calibration). It evaluates f at most opts.MaxEvals times: a search
// that exhausts the budget returns the best point found, and a budget
// too small for the initial simplex is ErrMaxEvals.
func NelderMead(f func([]float64) float64, x0 []float64, opts NMOptions) (NMResult, error) {
	if len(x0) == 0 {
		return NMResult{}, ErrBadStart
	}
	opts = opts.withDefaults()
	n := len(x0)
	if opts.MaxEvals < n+1 {
		return NMResult{}, fmt.Errorf("%w: %d evaluations cannot build a %d-vertex simplex", ErrMaxEvals, opts.MaxEvals, n+1)
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	type vertex struct {
		x []float64
		f float64
	}
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}
	left := func() bool { return evals < opts.MaxEvals }
	// Initial simplex: x0 plus n perturbed vertices.
	simplex := make([]vertex, n+1)
	base := append([]float64(nil), x0...)
	simplex[0] = vertex{x: base, f: eval(base)}
	for i := 0; i < n; i++ {
		x := append([]float64(nil), x0...)
		h := opts.Step * math.Abs(x[i])
		if h == 0 { // h is Step*|x[i]|, exactly zero only when x[i] is; fall back to the absolute step
			h = opts.Step
		}
		x[i] += h
		simplex[i+1] = vertex{x: x, f: eval(x)}
	}
	centroid := make([]float64, n)
	// A step that finds the budget spent breaks out of the switch, and
	// the loop condition then ends the search.
	for left() {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		if math.Abs(simplex[n].f-simplex[0].f) < opts.Tol {
			return NMResult{X: simplex[0].x, F: simplex[0].f, Evals: evals}, nil
		}
		// Centroid of all but the worst.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := range centroid {
				centroid[j] += simplex[i].x[j] / float64(n)
			}
		}
		worst := simplex[n]
		reflect := make([]float64, n)
		for j := range reflect {
			reflect[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		fr := eval(reflect)
		switch {
		case fr < simplex[0].f:
			simplex[n] = vertex{x: reflect, f: fr}
			if !left() {
				break
			}
			// Try expansion.
			expand := make([]float64, n)
			for j := range expand {
				expand[j] = centroid[j] + gamma*(reflect[j]-centroid[j])
			}
			if fe := eval(expand); fe < fr {
				simplex[n] = vertex{x: expand, f: fe}
			}
		case fr < simplex[n-1].f:
			simplex[n] = vertex{x: reflect, f: fr}
		default:
			if !left() {
				break
			}
			// Contraction.
			contract := make([]float64, n)
			for j := range contract {
				contract[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
			}
			fc := eval(contract)
			if fc < worst.f {
				simplex[n] = vertex{x: contract, f: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n && left(); i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return NMResult{X: simplex[0].x, F: simplex[0].f, Evals: evals}, nil
}

// GridSearch minimizes f over the Cartesian product of the per-
// dimension value lists — the brute-force baseline the heuristic
// methods are compared against.
func GridSearch(f func([]float64) float64, grid [][]float64) (NMResult, error) {
	if len(grid) == 0 {
		return NMResult{}, ErrBadStart
	}
	for d, vals := range grid {
		if len(vals) == 0 {
			return NMResult{}, fmt.Errorf("%w: dimension %d empty", ErrBadBounds, d)
		}
	}
	n := len(grid)
	idx := make([]int, n)
	x := make([]float64, n)
	best := NMResult{F: math.Inf(1)}
	for {
		for d := range x {
			x[d] = grid[d][idx[d]]
		}
		fv := f(x)
		best.Evals++
		if fv < best.F {
			best.F = fv
			best.X = append([]float64(nil), x...)
		}
		// Odometer increment.
		d := 0
		for d < n {
			idx[d]++
			if idx[d] < len(grid[d]) {
				break
			}
			idx[d] = 0
			d++
		}
		if d == n {
			break
		}
	}
	return best, nil
}
