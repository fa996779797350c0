package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// checkMoments samples n variates from d and verifies sample mean and
// variance against the analytic values within relative tolerance tol.
func checkMoments(t *testing.T, d Dist, seed uint64, n int, tol float64) {
	t.Helper()
	r := New(seed)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	scale := math.Max(math.Abs(d.Mean()), 0.1)
	if math.Abs(mean-d.Mean())/scale > tol {
		t.Errorf("%v: sample mean %g, want %g", d, mean, d.Mean())
	}
	vscale := math.Max(d.Var(), 0.1)
	if math.Abs(variance-d.Var())/vscale > 3*tol {
		t.Errorf("%v: sample variance %g, want %g", d, variance, d.Var())
	}
}

func TestDistMoments(t *testing.T) {
	const n = 300000
	dists := []Dist{
		NormalDist{Mu: 3, Sigma: 2},
		ExponentialDist{Rate: 0.7},
		UniformDist{Lo: -1, Hi: 5},
	}
	for i, d := range dists {
		checkMoments(t, d, uint64(100+i), n, 0.02)
	}
}

func TestNormalLogPDF(t *testing.T) {
	d := NormalDist{Mu: 0, Sigma: 1}
	// φ(0) = 1/sqrt(2π).
	want := -0.5 * math.Log(2*math.Pi)
	if got := d.LogPDF(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogPDF(0) = %g, want %g", got, want)
	}
}

func TestExponentialLogPDFSupport(t *testing.T) {
	d := ExponentialDist{Rate: 2}
	if !math.IsInf(d.LogPDF(-1), -1) {
		t.Fatal("LogPDF(-1) should be -Inf")
	}
	if got, want := d.LogPDF(0), math.Log(2.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogPDF(0) = %g, want %g", got, want)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	err := quick.Check(func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.98) + 0.01 // p in [0.01, 0.99]
		x := NormalQuantile(p)
		return math.Abs(NormalCDF(x)-p) < 1e-6
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.975:  1.959964,
		0.025:  -1.959964,
		0.8413: 0.99982, // ≈ Φ(1)
	}
	for p, want := range cases {
		if got := NormalQuantile(p); math.Abs(got-want) > 1e-3 {
			t.Errorf("NormalQuantile(%g) = %g, want ≈ %g", p, got, want)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%g) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	err := quick.Check(func(x float64) bool {
		x = math.Mod(x, 8)
		return math.Abs(NormalCDF(x)+NormalCDF(-x)-1) < 1e-12
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleN(t *testing.T) {
	d := UniformDist{Lo: 0, Hi: 1}
	xs := SampleN(d, New(77), 10)
	if len(xs) != 10 {
		t.Fatalf("SampleN length = %d", len(xs))
	}
}
