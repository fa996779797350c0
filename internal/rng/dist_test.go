package rng

import (
	"math"
	"slices"
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

// TestDrawsMatchTheirCDFs draws n = 10 000 variates of each
// distribution from a pinned seed and bounds the Kolmogorov–Smirnov
// distance to the exact CDF by 1.95/√n, the critical value at
// α = 0.001. Poisson is checked at every integer, once on each side of
// the λ = 30 switch from Knuth's product method to PTRS.
func TestDrawsMatchTheirCDFs(t *testing.T) {
	const n = 10000
	bound := 1.95 / math.Sqrt(n)
	for _, c := range []struct {
		name string
		draw func(*Stream) float64
		cdf  func(float64) float64
	}{
		{"Normal(2, 3)", func(r *Stream) float64 { return r.Normal(2, 3) }, func(x float64) float64 { return NormalCDF((x - 2) / 3) }},
		{"Exponential(0.5)", func(r *Stream) float64 { return r.Exponential(0.5) }, func(x float64) float64 { return -math.Expm1(-0.5 * x) }},
		{"Float64", (*Stream).Float64, func(x float64) float64 { return x }},
	} {
		r := New(1)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = c.draw(r)
		}
		slices.Sort(xs)
		d := 0.0
		for i, x := range xs {
			f := c.cdf(x)
			d = math.Max(d, math.Max(float64(i+1)/n-f, f-float64(i)/n))
		}
		if d >= bound {
			t.Errorf("%s: KS distance %.4f, want < %.4f", c.name, d, bound)
		}
	}
	for _, lambda := range []float64{4, 100} {
		r := New(1)
		var counts []int
		for i := 0; i < n; i++ {
			k := r.Poisson(lambda)
			for len(counts) <= k {
				counts = append(counts, 0)
			}
			counts[k]++
		}
		d, seen, cdf := 0.0, 0, 0.0
		for k, c := range counts {
			lg, _ := math.Lgamma(float64(k + 1))
			seen += c
			cdf += math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
			d = math.Max(d, math.Abs(float64(seen)/n-cdf))
		}
		if d >= bound {
			t.Errorf("Poisson(%g): KS distance %.4f, want < %.4f", lambda, d, bound)
		}
	}
}
