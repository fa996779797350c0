// Package metamodel implements the simulation metamodels of §4.1 of
// the paper: polynomial response-surface models fitted by least squares
// (from plain linear models up to full interaction models), Gaussian-
// process metamodels (kriging) with the paper's product-exponential
// covariance and the optimal predictor of Eq. (6), and stochastic
// kriging, which adds intrinsic simulation noise [Σ_M + Σ_ε]⁻¹.
// Metamodels support "simulation on demand": once fitted, model output
// at new inputs is approximated almost instantly.
package metamodel

import (
	"errors"
	"fmt"
	"sort"

	"modeldata/internal/linalg"
)

// Common errors.
var (
	ErrBadDesign = errors.New("metamodel: invalid design")
	ErrBadOrder  = errors.New("metamodel: invalid interaction order")
	ErrDims      = errors.New("metamodel: dimension mismatch")
)

// Polynomial is the classic polynomial metamodel of Eq. (3):
// Y(x) = β₀ + Σβᵢxᵢ + Σβᵢⱼxᵢxⱼ + … + ε, fitted up to interaction
// order Order (1 = the simple linear model).
type Polynomial struct {
	N     int     // input dimension
	Order int     // highest interaction order kept
	Terms [][]int // variable index sets; Terms[0] = {} is the intercept
	Beta  []float64
}

// termSets enumerates the index subsets of {0..n−1} with size ≤ order,
// in size-then-lexicographic order.
func termSets(n, order int) [][]int {
	var out [][]int
	out = append(out, []int{}) // intercept
	var rec func(start int, cur []int)
	bySize := make([][][]int, order+1)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			cp := append([]int(nil), cur...)
			bySize[len(cur)] = append(bySize[len(cur)], cp)
		}
		if len(cur) == order {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	for s := 1; s <= order; s++ {
		out = append(out, bySize[s]...)
	}
	return out
}

// FitPolynomial fits the polynomial metamodel to design points X
// (rows = runs) and responses y.
func FitPolynomial(x [][]float64, y []float64, order int) (*Polynomial, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d design points, %d responses", ErrBadDesign, len(x), len(y))
	}
	n := len(x[0])
	if order < 1 || order > n {
		return nil, fmt.Errorf("%w: order %d for %d factors", ErrBadOrder, order, n)
	}
	terms := termSets(n, order)
	if len(x) < len(terms) {
		return nil, fmt.Errorf("%w: %d runs cannot identify %d terms", ErrBadDesign, len(x), len(terms))
	}
	dm := linalg.NewMatrix(len(x), len(terms))
	for i, row := range x {
		if len(row) != n {
			return nil, fmt.Errorf("%w: run %d has %d factors, want %d", ErrBadDesign, i, len(row), n)
		}
		for j, term := range terms {
			v := 1.0
			for _, k := range term {
				v *= row[k]
			}
			dm.Set(i, j, v)
		}
	}
	beta, err := linalg.OLS(dm, y)
	if err != nil {
		return nil, err
	}
	return &Polynomial{N: n, Order: order, Terms: terms, Beta: beta}, nil
}

// Predict evaluates the fitted response surface at x.
func (p *Polynomial) Predict(x []float64) (float64, error) {
	if len(x) != p.N {
		return 0, fmt.Errorf("%w: point has %d factors, want %d", ErrDims, len(x), p.N)
	}
	out := 0.0
	for j, term := range p.Terms {
		v := p.Beta[j]
		for _, k := range term {
			v *= x[k]
		}
		out += v
	}
	return out, nil
}

// MainEffects returns the first-order coefficients β₁…βₙ — the
// "sensitivities" used for factor classification (§4.3).
func (p *Polynomial) MainEffects() []float64 {
	out := make([]float64, p.N)
	for j, term := range p.Terms {
		if len(term) == 1 {
			out[term[0]] = p.Beta[j]
		}
	}
	return out
}

// Coefficient returns the coefficient of the interaction term over the
// given (sorted) variable indexes; an empty set gives β₀.
func (p *Polynomial) Coefficient(vars []int) (float64, error) {
	sorted := append([]int(nil), vars...)
	sort.Ints(sorted)
	for j, term := range p.Terms {
		if equalInts(term, sorted) {
			return p.Beta[j], nil
		}
	}
	return 0, fmt.Errorf("%w: term %v not in the order-%d model", ErrBadOrder, vars, p.Order)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RSquared returns the coefficient of determination of the fit on the
// training design.
func (p *Polynomial) RSquared(x [][]float64, y []float64) (float64, error) {
	if len(x) != len(y) || len(x) == 0 {
		return 0, ErrBadDesign
	}
	mean := 0.0
	for _, v := range y {
		mean += v / float64(len(y))
	}
	ssTot, ssRes := 0.0, 0.0
	for i, row := range x {
		pred, err := p.Predict(row)
		if err != nil {
			return 0, err
		}
		ssTot += (y[i] - mean) * (y[i] - mean)
		ssRes += (y[i] - pred) * (y[i] - pred)
	}
	if ssTot == 0 { // exactly constant response: R² is 1 by convention, and any nonzero ssTot divides safely
		return 1, nil
	}
	return 1 - ssRes/ssTot, nil
}
