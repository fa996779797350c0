package timeseries

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"modeldata/internal/mapreduce"
	"modeldata/internal/rng"
	"modeldata/internal/sgd"
)

func sineSeries(t *testing.T, n int) *Series {
	t.Helper()
	ts := make([]float64, n)
	vs := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 10 / float64(n-1)
		vs[i] = math.Sin(ts[i])
	}
	return mustSeries(t, "sine", ts, vs)
}

func TestSplineTooShort(t *testing.T) {
	s := mustSeries(t, "s", []float64{0, 1}, []float64{1, 2})
	if _, err := NewSpline(s); !errors.Is(err, ErrTooShort) {
		t.Fatalf("got %v, want ErrTooShort", err)
	}
}

func TestSplinePassesThroughKnots(t *testing.T) {
	s := sineSeries(t, 20)
	sp, err := NewSpline(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		got, err := sp.At(p.T)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p.V) > 1e-10 {
			t.Fatalf("spline(%g) = %g, want knot value %g", p.T, got, p.V)
		}
	}
}

func TestSplineNaturalBoundary(t *testing.T) {
	s := sineSeries(t, 15)
	sp, err := NewSpline(s)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Sigma[0] != 0 || sp.Sigma[len(sp.Sigma)-1] != 0 {
		t.Fatalf("boundary sigmas = %g, %g", sp.Sigma[0], sp.Sigma[len(sp.Sigma)-1])
	}
}

func TestSplineApproximatesSmoothFunction(t *testing.T) {
	s := sineSeries(t, 50)
	sp, err := NewSpline(s)
	if err != nil {
		t.Fatal(err)
	}
	// Natural boundary conditions (σ₀ = σ_m = 0) are only O(h²)
	// accurate near the endpoints where sin″ ≠ 0, so check a loose
	// global bound and a tight interior bound.
	maxErr, maxErrInterior := 0.0, 0.0
	for q := 0.1; q < 9.9; q += 0.0317 {
		got, err := sp.At(q)
		if err != nil {
			t.Fatal(err)
		}
		e := math.Abs(got - math.Sin(q))
		if e > maxErr {
			maxErr = e
		}
		if q > 1.5 && q < 8.5 && e > maxErrInterior {
			maxErrInterior = e
		}
	}
	if maxErr > 5e-3 {
		t.Fatalf("spline global max error vs sin = %g", maxErr)
	}
	if maxErrInterior > 1e-4 {
		t.Fatalf("spline interior max error vs sin = %g", maxErrInterior)
	}
}

// Property: a cubic spline reproduces cubic-free data exactly — for
// data sampled from a straight line the spline is that line and all
// sigmas are zero.
func TestSplineExactOnLinesProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a, b := r.Normal(0, 3), r.Normal(0, 3)
		ts := []float64{0, 1, 2, 3.5, 5, 8}
		vs := make([]float64, len(ts))
		for i, tt := range ts {
			vs[i] = a + b*tt
		}
		s, err := FromSlices("lin", ts, vs)
		if err != nil {
			return false
		}
		sp, err := NewSpline(s)
		if err != nil {
			return false
		}
		for _, sig := range sp.Sigma {
			if math.Abs(sig) > 1e-9 {
				return false
			}
		}
		got, err := sp.At(4.2)
		return err == nil && math.Abs(got-(a+b*4.2)) < 1e-9
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplineSGDMatchesExact(t *testing.T) {
	s := sineSeries(t, 200)
	exact, err := NewSpline(s)
	if err != nil {
		t.Fatal(err)
	}
	tri, b, err := SplineSystem(s)
	if err != nil {
		t.Fatal(err)
	}
	interior, _, err := sgd.SolveDistributed(tri, b, sgd.Options{
		Epochs: 300, Kaczmarz: true, Seed: 3, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	approx := append(append([]float64{0}, interior...), 0) // natural boundary
	for i := range exact.Sigma {
		if math.Abs(exact.Sigma[i]-approx[i]) > 1e-5 {
			t.Fatalf("sigma[%d]: exact %g vs DSGD %g", i, exact.Sigma[i], approx[i])
		}
	}
}

func TestInterpolateMethods(t *testing.T) {
	s := sineSeries(t, 40)
	targets := []float64{0.5, 2.2, 7.7}
	for _, m := range []InterpMethod{InterpStep, InterpLinear, InterpCubicSpline} {
		out, err := Interpolate(s, targets, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if out.Len() != len(targets) {
			t.Fatalf("%v: %d points", m, out.Len())
		}
	}
	if _, err := Interpolate(s, []float64{99}, InterpLinear); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
	if _, err := Interpolate(s, targets, InterpMethod(99)); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestClassify(t *testing.T) {
	fine := sineSeries(t, 101) // step 0.1 over [0, 10]
	coarseTicks := []float64{0, 2, 4, 6, 8, 10}
	fineTicks := make([]float64, 201)
	for i := range fineTicks {
		fineTicks[i] = float64(i) * 0.05
	}
	sameTicks := times(fine)
	if c := Classify(fine, coarseTicks); c != AlignAggregation {
		t.Fatalf("coarse target: %v", c)
	}
	if c := Classify(fine, fineTicks); c != AlignInterpolation {
		t.Fatalf("fine target: %v", c)
	}
	if c := Classify(fine, sameTicks); c != AlignIdentity {
		t.Fatalf("same ticks: %v", c)
	}
}

func TestAlignDispatch(t *testing.T) {
	s := sineSeries(t, 101)
	out, class, err := Align(s, []float64{0, 2, 4, 6, 8}, InterpLinear, AggMean)
	if err != nil || class != AlignAggregation {
		t.Fatalf("agg: class=%v err=%v", class, err)
	}
	if out.Len() != 5 {
		t.Fatalf("agg output = %d", out.Len())
	}
	targets := []float64{1.01, 1.02, 1.03, 1.04, 1.05}
	// Dense targets over a tiny span have a smaller mean step.
	out, class, err = Align(s, targets, InterpCubicSpline, AggMean)
	if err != nil || class != AlignInterpolation {
		t.Fatalf("interp: class=%v err=%v", class, err)
	}
	if out.Len() != len(targets) {
		t.Fatalf("interp output = %d", out.Len())
	}
	_, class, err = Align(s, times(s), InterpLinear, AggMean)
	if err != nil || class != AlignIdentity {
		t.Fatalf("identity: class=%v err=%v", class, err)
	}
}

func TestParallelInterpolateMatchesSequential(t *testing.T) {
	s := sineSeries(t, 60)
	sp, err := NewSpline(s)
	if err != nil {
		t.Fatal(err)
	}
	var targets []float64
	for q := 0.05; q < 9.9; q += 0.07 {
		targets = append(targets, q)
	}
	seq := make([]float64, len(targets))
	for i, q := range targets {
		if seq[i], err = sp.At(q); err != nil {
			t.Fatal(err)
		}
	}
	par, stats, err := ParallelInterpolateCtx(context.Background(), sp, targets, mapreduce.Config{Mappers: 4, Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if par.Len() != len(targets) {
		t.Fatalf("parallel output = %d, want %d", par.Len(), len(targets))
	}
	if stats.InputSplits == 0 {
		t.Fatal("no windows processed")
	}
	for i, p := range par.Points {
		if math.Abs(p.T-targets[i]) > 1e-9 {
			t.Fatalf("target order broken at %d: %g vs %g", i, p.T, targets[i])
		}
		if math.Abs(p.V-seq[i]) > 1e-12 {
			t.Fatalf("value mismatch at %d: %g vs %g", i, p.V, seq[i])
		}
	}
}

func TestParallelInterpolateOutOfRange(t *testing.T) {
	s := sineSeries(t, 10)
	sp, err := NewSpline(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParallelInterpolateCtx(context.Background(), sp, []float64{-5}, mapreduce.Config{}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
}

func TestParallelInterpolateEmptyTargets(t *testing.T) {
	s := sineSeries(t, 10)
	sp, err := NewSpline(s)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ParallelInterpolateCtx(context.Background(), sp, nil, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatal("expected empty output")
	}
}
