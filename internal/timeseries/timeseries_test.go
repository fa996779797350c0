package timeseries

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"modeldata/internal/rng"
)

func mustSeries(t *testing.T, name string, ts, vs []float64) *Series {
	t.Helper()
	s, err := FromSlices(name, ts, vs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsUnsorted(t *testing.T) {
	_, err := FromSlices("x", []float64{0, 2, 1}, []float64{1, 2, 3})
	if !errors.Is(err, ErrUnsorted) {
		t.Fatalf("got %v, want ErrUnsorted", err)
	}
	_, err = FromSlices("x", []float64{0, 0}, []float64{1, 2})
	if !errors.Is(err, ErrUnsorted) {
		t.Fatalf("duplicate times: got %v, want ErrUnsorted", err)
	}
	_, err = FromSlices("x", []float64{0}, []float64{1, 2})
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestAccessors(t *testing.T) {
	s := mustSeries(t, "s", []float64{0, 1, 2}, []float64{10, 20, 30})
	if s.Len() != 3 {
		t.Fatal("Len")
	}
	sub := s.Slice(0.5, 2)
	if sub.Len() != 1 || sub.Points[0].V != 20 {
		t.Fatalf("Slice = %v", sub.Points)
	}
}

func TestStepAndLinearAt(t *testing.T) {
	s := mustSeries(t, "s", []float64{0, 1, 3}, []float64{10, 20, 60})
	if v, _ := s.StepAt(0.9); v != 10 {
		t.Fatalf("StepAt(0.9) = %g", v)
	}
	if v, _ := s.StepAt(1); v != 20 {
		t.Fatalf("StepAt(1) = %g", v)
	}
	if v, _ := s.LinearAt(2); v != 40 {
		t.Fatalf("LinearAt(2) = %g", v)
	}
	if v, _ := s.LinearAt(3); v != 60 {
		t.Fatalf("LinearAt(3) endpoint = %g", v)
	}
	if _, err := s.LinearAt(5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v, want ErrOutOfRange", err)
	}
}

func TestAggregateKinds(t *testing.T) {
	s := mustSeries(t, "s",
		[]float64{0, 0.5, 1, 1.5, 2, 2.5},
		[]float64{1, 3, 5, 7, 9, 11})
	cases := map[AggKind][]float64{
		AggMean:  {2, 6, 10},
		AggSum:   {4, 12, 20},
		AggFirst: {1, 5, 9},
		AggLast:  {3, 7, 11},
		AggMin:   {1, 5, 9},
		AggMax:   {3, 7, 11},
	}
	for kind, want := range cases {
		out, err := Aggregate(s, []float64{0, 1, 2}, kind)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 3 {
			t.Fatalf("kind %d: %d buckets", kind, out.Len())
		}
		for i, p := range out.Points {
			if p.V != want[i] {
				t.Errorf("kind %d bucket %d = %g, want %g", kind, i, p.V, want[i])
			}
		}
	}
}

func TestAggregateDropsEmptyBuckets(t *testing.T) {
	s := mustSeries(t, "s", []float64{0, 5}, []float64{1, 2})
	out, err := Aggregate(s, []float64{0, 1, 2, 3, 4, 5}, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("buckets = %d, want 2", out.Len())
	}
}

func TestAggregateErrors(t *testing.T) {
	s := mustSeries(t, "s", []float64{0, 1}, []float64{1, 2})
	if _, err := Aggregate(s, nil, AggMean); !errors.Is(err, ErrTooShort) {
		t.Fatalf("got %v", err)
	}
	if _, err := Aggregate(s, []float64{1, 1}, AggMean); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("got %v", err)
	}
}

func TestFitTrendRecoversLine(t *testing.T) {
	ts := make([]float64, 30)
	vs := make([]float64, 30)
	for i := range ts {
		ts[i] = float64(1970 + i)
		vs[i] = 100 + 3*float64(i)
	}
	s := mustSeries(t, "line", ts, vs)
	m, err := FitTrend(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, year := range []float64{1975, 1990, 2005} {
		want := 100 + 3*(year-1970)
		if got := m.At(year); math.Abs(got-want) > 1e-6 {
			t.Fatalf("trend(%g) = %g, want %g", year, got, want)
		}
	}
}

func TestFitTrendTooShort(t *testing.T) {
	s := mustSeries(t, "s", []float64{0, 1}, []float64{1, 2})
	if _, err := FitTrend(s, 3); !errors.Is(err, ErrTooShort) {
		t.Fatalf("got %v, want ErrTooShort", err)
	}
}

func TestFitTrendConstantTime(t *testing.T) {
	s := mustSeries(t, "s", []float64{5, 6, 7}, []float64{1, 1, 1})
	m, err := FitTrend(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.At(100)-1) > 1e-9 {
		t.Fatal("constant trend wrong")
	}
}

// Property: linear interpolation of a linear series is exact.
func TestLinearInterpExactOnLinesProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a, b := r.Normal(0, 5), r.Normal(0, 5)
		ts := []float64{0, 1, 2.5, 4, 7}
		vs := make([]float64, len(ts))
		for i, tt := range ts {
			vs[i] = a + b*tt
		}
		s, err := FromSlices("lin", ts, vs)
		if err != nil {
			return false
		}
		for _, q := range []float64{0.3, 1.7, 3.14, 6.9} {
			got, err := s.LinearAt(q)
			if err != nil || math.Abs(got-(a+b*q)) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// times returns a series' observation times.
func times(s *Series) []float64 {
	ts := make([]float64, s.Len())
	for i, p := range s.Points {
		ts[i] = p.T
	}
	return ts
}
