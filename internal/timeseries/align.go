package timeseries

import (
	"context"
	"fmt"
	"sort"

	"modeldata/internal/mapreduce"
)

// AlignClass is the class of time alignment needed between a source and
// target timescale, as determined by Splash's time-aligner tool (§2.2):
// aggregation when the target is coarser than the source, interpolation
// when it is finer, and identity when the tick sets match.
type AlignClass uint8

// Alignment classes.
const (
	AlignIdentity AlignClass = iota
	AlignAggregation
	AlignInterpolation
)

// String names the alignment class.
func (c AlignClass) String() string {
	switch c {
	case AlignIdentity:
		return "identity"
	case AlignAggregation:
		return "aggregation"
	case AlignInterpolation:
		return "interpolation"
	}
	return fmt.Sprintf("AlignClass(%d)", uint8(c))
}

// Classify determines the alignment class from the mean tick spacing of
// the source series and the target tick set.
func Classify(source *Series, targetTicks []float64) AlignClass {
	if source.Len() < 2 || len(targetTicks) < 2 {
		return AlignIdentity
	}
	srcSpan := source.Points[source.Len()-1].T - source.Points[0].T
	srcStep := srcSpan / float64(source.Len()-1)
	tgtStep := (targetTicks[len(targetTicks)-1] - targetTicks[0]) / float64(len(targetTicks)-1)
	const tol = 1e-9
	switch {
	case tgtStep > srcStep*(1+tol):
		return AlignAggregation
	case tgtStep < srcStep*(1-tol):
		return AlignInterpolation
	default:
		return AlignIdentity
	}
}

// InterpMethod selects an interpolation method for alignment.
type InterpMethod uint8

// Interpolation methods.
const (
	InterpStep InterpMethod = iota
	InterpLinear
	InterpCubicSpline
)

// String names the interpolation method.
func (m InterpMethod) String() string {
	switch m {
	case InterpStep:
		return "step"
	case InterpLinear:
		return "linear"
	case InterpCubicSpline:
		return "cubic-spline"
	}
	return fmt.Sprintf("InterpMethod(%d)", uint8(m))
}

// Interpolate aligns s to the finer target ticks with the chosen
// method. All targets must fall within the series range.
func Interpolate(s *Series, targetTicks []float64, method InterpMethod) (*Series, error) {
	var at func(float64) (float64, error)
	switch method {
	case InterpStep:
		at = s.StepAt
	case InterpLinear:
		at = s.LinearAt
	case InterpCubicSpline:
		sp, err := NewSpline(s)
		if err != nil {
			return nil, err
		}
		at = sp.At
	default:
		return nil, fmt.Errorf("timeseries: unknown interpolation method %v", method)
	}
	pts := make([]Point, len(targetTicks))
	for i, t := range targetTicks {
		v, err := at(t)
		if err != nil {
			return nil, err
		}
		pts[i] = Point{T: t, V: v}
	}
	return New(s.Name, pts)
}

// Align classifies and applies the needed alignment in one call,
// returning the aligned series and the class that was applied — the
// behaviour of Splash's time-aligner GUI compiled to code.
func Align(s *Series, targetTicks []float64, method InterpMethod, agg AggKind) (*Series, AlignClass, error) {
	class := Classify(s, targetTicks)
	switch class {
	case AlignAggregation:
		out, err := Aggregate(s, targetTicks, agg)
		return out, class, err
	case AlignInterpolation:
		out, err := Interpolate(s, targetTicks, method)
		return out, class, err
	default:
		return s, AlignIdentity, nil
	}
}

// window is one parallel interpolation unit W = ⟨(sⱼ,dⱼ), (s_{j+1},
// d_{j+1})⟩ plus its spline constants and assigned target points.
type window struct {
	j       int
	targets []float64
}

// ParallelInterpolateCtx performs spline interpolation on the
// MapReduce runtime following §2.2: spline constants are computed once
// (by the provided fit, typically exact Thomas or DSGD), source
// segments become windows processed by parallel mappers, and the
// target series is assembled by the framework's parallel sort. It
// returns the aligned series and the job statistics. Cancellation of
// ctx aborts the job between stages with ctx.Err(); the job's retry
// policy, fault injector and parallel.Stats collector come from ctx.
func ParallelInterpolateCtx(ctx context.Context, sp *Spline, targetTicks []float64, cfg mapreduce.Config) (*Series, mapreduce.Stats, error) {
	s := sp.s
	// Assign each target tick to its window.
	sorted := make([]float64, len(targetTicks))
	copy(sorted, targetTicks)
	sort.Float64s(sorted)
	wins := make(map[int]*window)
	for _, t := range sorted {
		j, err := s.segmentFor(t)
		if err != nil {
			return nil, mapreduce.Stats{}, err
		}
		w, ok := wins[j]
		if !ok {
			w = &window{j: j}
			wins[j] = w
		}
		w.targets = append(w.targets, t)
	}
	segs := make([]int, 0, len(wins))
	for j := range wins {
		segs = append(segs, j)
	}
	sort.Ints(segs)
	splits := make([]any, 0, len(wins))
	for _, j := range segs {
		splits = append(splits, wins[j])
	}
	if len(splits) == 0 {
		return &Series{Name: s.Name}, mapreduce.Stats{}, nil
	}
	out, stats, err := mapreduce.RunCtx(ctx, cfg, splits,
		func(split any, emit func(mapreduce.Pair)) error {
			w := split.(*window)
			for _, t := range w.targets {
				v := sp.evalSegment(w.j, t)
				emit(mapreduce.Pair{Key: fmt.Sprintf("%020.6f", t), Value: Point{T: t, V: v}})
			}
			return nil
		},
		func(key string, values []any, emit func(mapreduce.Pair)) error {
			for _, v := range values {
				emit(mapreduce.Pair{Key: key, Value: v})
			}
			return nil
		})
	if err != nil {
		return nil, stats, err
	}
	pts := make([]Point, len(out))
	for i, p := range out {
		pts[i] = p.Value.(Point)
	}
	aligned, err := New(s.Name, pts)
	if err != nil {
		return nil, stats, err
	}
	return aligned, stats, nil
}
