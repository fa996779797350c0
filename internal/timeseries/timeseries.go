// Package timeseries implements the time-series data model and the
// Splash-style time-alignment transformations of §2.2 of the paper:
// aggregation when the target model has coarser time granularity,
// interpolation (step, linear, and natural cubic spline) when it has
// finer granularity, and window-parallel execution of interpolation on
// the in-process MapReduce runtime.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"modeldata/internal/linalg"
)

// Common errors.
var (
	ErrUnsorted   = errors.New("timeseries: observation times are not strictly increasing")
	ErrTooShort   = errors.New("timeseries: series too short for this operation")
	ErrOutOfRange = errors.New("timeseries: target time outside the series range")
)

// Point is one observation (sᵢ, dᵢ).
type Point struct {
	T float64 // observation time
	V float64 // observed data
}

// Series is an ordered sequence of observations
// S = ⟨(s₀,d₀), …, (s_m,d_m)⟩ with strictly increasing times.
type Series struct {
	Name   string
	Points []Point
}

// New builds a Series after validating that times strictly increase.
func New(name string, pts []Point) (*Series, error) {
	s := &Series{Name: name, Points: pts}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// FromSlices builds a Series from parallel time and value slices.
func FromSlices(name string, ts, vs []float64) (*Series, error) {
	if len(ts) != len(vs) {
		return nil, fmt.Errorf("timeseries: %d times but %d values", len(ts), len(vs))
	}
	pts := make([]Point, len(ts))
	for i := range ts {
		pts[i] = Point{T: ts[i], V: vs[i]}
	}
	return New(name, pts)
}

// Validate checks that times strictly increase.
func (s *Series) Validate() error {
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].T <= s.Points[i-1].T {
			return fmt.Errorf("%w: index %d (t=%g after t=%g)",
				ErrUnsorted, i, s.Points[i].T, s.Points[i-1].T)
		}
	}
	return nil
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Points) }

// Times returns the observation times.
func (s *Series) Times() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.T
	}
	return out
}

// Values returns the observed data.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Slice returns the sub-series with times in [lo, hi).
func (s *Series) Slice(lo, hi float64) *Series {
	var pts []Point
	for _, p := range s.Points {
		if p.T >= lo && p.T < hi {
			pts = append(pts, p)
		}
	}
	return &Series{Name: s.Name, Points: pts}
}

// segmentFor locates j such that s.Points[j].T <= t <= s.Points[j+1].T.
func (s *Series) segmentFor(t float64) (int, error) {
	n := len(s.Points)
	if n < 2 || t < s.Points[0].T || t > s.Points[n-1].T {
		return 0, fmt.Errorf("%w: t=%g not in [%g, %g]", ErrOutOfRange, t,
			s.Points[0].T, s.Points[n-1].T)
	}
	j := sort.Search(n, func(i int) bool { return s.Points[i].T > t }) - 1
	if j >= n-1 {
		j = n - 2
	}
	return j, nil
}

// StepAt returns the last-observation-carried-forward value at t.
func (s *Series) StepAt(t float64) (float64, error) {
	j, err := s.segmentFor(t)
	if err != nil {
		return 0, err
	}
	if t == s.Points[j+1].T { // step-function semantics: only an exact knot hit takes the right value
		return s.Points[j+1].V, nil
	}
	return s.Points[j].V, nil
}

// LinearAt returns the linearly interpolated value at t.
func (s *Series) LinearAt(t float64) (float64, error) {
	j, err := s.segmentFor(t)
	if err != nil {
		return 0, err
	}
	p0, p1 := s.Points[j], s.Points[j+1]
	frac := (t - p0.T) / (p1.T - p0.T)
	return p0.V*(1-frac) + p1.V*frac, nil
}

// AggKind selects the aggregation used when aligning to a coarser
// timescale.
type AggKind uint8

// Aggregation kinds.
const (
	AggMean AggKind = iota
	AggSum
	AggFirst
	AggLast
	AggMin
	AggMax
)

// Aggregate aligns s to a coarser target timescale: for consecutive
// target ticks t_i, all source observations with time in [t_i, t_{i+1})
// are folded with the chosen aggregate and reported at t_i. The final
// tick captures all remaining observations at or after it. Empty
// buckets are dropped.
func Aggregate(s *Series, targetTicks []float64, kind AggKind) (*Series, error) {
	if len(targetTicks) == 0 {
		return nil, fmt.Errorf("%w: no target ticks", ErrTooShort)
	}
	for i := 1; i < len(targetTicks); i++ {
		if targetTicks[i] <= targetTicks[i-1] {
			return nil, fmt.Errorf("%w: target tick %d", ErrUnsorted, i)
		}
	}
	var out []Point
	for i, tick := range targetTicks {
		hi := math.Inf(1)
		if i+1 < len(targetTicks) {
			hi = targetTicks[i+1]
		}
		var bucket []float64
		for _, p := range s.Points {
			if p.T >= tick && p.T < hi {
				bucket = append(bucket, p.V)
			}
		}
		if len(bucket) == 0 {
			continue
		}
		out = append(out, Point{T: tick, V: foldAgg(bucket, kind)})
	}
	return New(s.Name, out)
}

func foldAgg(vals []float64, kind AggKind) float64 {
	switch kind {
	case AggMean:
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	case AggSum:
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum
	case AggFirst:
		return vals[0]
	case AggLast:
		return vals[len(vals)-1]
	case AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}
	return math.NaN()
}

// TrendModel is a polynomial trend d(t) ≈ Σ βₖ tᵏ fitted by least
// squares, used by the Figure 1 extrapolation experiment.
type TrendModel struct {
	Beta []float64 // coefficients, constant term first
	// T0 and TScale standardize time before fitting for conditioning:
	// u = (t − T0)/TScale.
	T0, TScale float64
}

// FitTrend fits a polynomial trend of the given degree to s.
func FitTrend(s *Series, degree int) (*TrendModel, error) {
	n := s.Len()
	if n < degree+1 {
		return nil, fmt.Errorf("%w: %d points for degree %d", ErrTooShort, n, degree)
	}
	t0 := s.Points[0].T
	tScale := s.Points[n-1].T - t0
	if tScale == 0 { // exact-zero span means a single instant; guard before dividing
		tScale = 1
	}
	x := linalg.NewMatrix(n, degree+1)
	y := make([]float64, n)
	for i, p := range s.Points {
		u := (p.T - t0) / tScale
		pow := 1.0
		for k := 0; k <= degree; k++ {
			x.Set(i, k, pow)
			pow *= u
		}
		y[i] = p.V
	}
	beta, err := linalg.OLS(x, y)
	if err != nil {
		return nil, err
	}
	return &TrendModel{Beta: beta, T0: t0, TScale: tScale}, nil
}

// At evaluates the trend at time t (extrapolating freely — which is
// exactly the danger Figure 1 illustrates).
func (m *TrendModel) At(t float64) float64 {
	u := (t - m.T0) / m.TScale
	pow := 1.0
	v := 0.0
	for _, b := range m.Beta {
		v += b * pow
		pow *= u
	}
	return v
}
