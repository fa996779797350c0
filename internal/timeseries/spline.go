package timeseries

import (
	"fmt"

	"modeldata/internal/linalg"
)

// Spline is a natural cubic spline through a Series. Sigma holds the
// spline constants σ₀, …, σ_m of §2.2 (the second derivatives at the
// knots, with σ₀ = σ_m = 0 for a natural spline).
type Spline struct {
	s     *Series
	Sigma []float64
}

// SplineSystem builds the tridiagonal linear system A·σ = b whose
// solution gives the interior spline constants σ₁…σ_{m−1}. This is the
// (m−1)×(m−1) system the paper describes as potentially containing
// "millions of rows and millions of columns" for massive time series.
func SplineSystem(s *Series) (*linalg.Tridiagonal, []float64, error) {
	m := s.Len() - 1
	if m < 2 {
		return nil, nil, fmt.Errorf("%w: need ≥ 3 points for a cubic spline, have %d", ErrTooShort, s.Len())
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	n := m - 1 // unknowns σ₁..σ_{m−1}
	tri := &linalg.Tridiagonal{
		Sub:   make([]float64, n-1),
		Diag:  make([]float64, n),
		Super: make([]float64, n-1),
	}
	b := make([]float64, n)
	h := func(j int) float64 { return s.Points[j+1].T - s.Points[j].T }
	d := func(j int) float64 { return s.Points[j].V }
	for i := 0; i < n; i++ {
		j := i + 1 // knot index
		tri.Diag[i] = 2 * (h(j-1) + h(j))
		if i > 0 {
			tri.Sub[i-1] = h(j - 1)
		}
		if i < n-1 {
			tri.Super[i] = h(j)
		}
		b[i] = 6 * ((d(j+1)-d(j))/h(j) - (d(j)-d(j-1))/h(j-1))
	}
	return tri, b, nil
}

// NewSpline fits a natural cubic spline to s, solving the spline
// constant system exactly with the Thomas algorithm.
func NewSpline(s *Series) (*Spline, error) {
	tri, b, err := SplineSystem(s)
	if err != nil {
		return nil, err
	}
	interior, err := tri.SolveThomas(b)
	if err != nil {
		return nil, err
	}
	sigma := make([]float64, s.Len())
	copy(sigma[1:], interior) // σ₀ = σ_m = 0 (natural boundary)
	return &Spline{s: s, Sigma: sigma}, nil
}

// At evaluates the spline at tᵢ using the paper's interpolation formula:
//
//	d̃ᵢ = σⱼ/(6hⱼ)·(s_{j+1}−tᵢ)³ + σ_{j+1}/(6hⱼ)·(tᵢ−sⱼ)³
//	    + (d_{j+1}/hⱼ − σ_{j+1}hⱼ/6)·(tᵢ−sⱼ)
//	    + (dⱼ/hⱼ − σⱼhⱼ/6)·(s_{j+1}−tᵢ)
func (sp *Spline) At(t float64) (float64, error) {
	j, err := sp.s.segmentFor(t)
	if err != nil {
		return 0, err
	}
	return sp.evalSegment(j, t), nil
}

// evalSegment evaluates the spline on segment j at time t without
// bounds checking.
func (sp *Spline) evalSegment(j int, t float64) float64 {
	p0, p1 := sp.s.Points[j], sp.s.Points[j+1]
	h := p1.T - p0.T
	a := p1.T - t
	b := t - p0.T
	s0, s1 := sp.Sigma[j], sp.Sigma[j+1]
	return s0/(6*h)*a*a*a + s1/(6*h)*b*b*b +
		(p1.V/h-s1*h/6)*b + (p0.V/h-s0*h/6)*a
}
