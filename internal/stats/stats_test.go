package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"modeldata/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	// Unbiased variance of this classic sample is 32/7.
	if got, want := Variance(xs), 32.0/7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %g, want %g", got, want)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("empty/singleton edge cases wrong")
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatal("Quantile(nil) should be ErrEmpty")
	}
}

func TestCovarianceKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got, want := Covariance(xs, ys), 2*Variance(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Covariance = %g, want %g", got, want)
	}
}

func TestQuantileEndpointsAndMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 9 {
		t.Fatalf("extremes: %g, %g", q0, q1)
	}
	med, _ := Quantile(xs, 0.5)
	if med != 3.5 {
		t.Fatalf("median = %g, want 3.5", med)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("p out of range should error")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantilesMonotone(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		xs := rng.SampleN(rng.NormalDist{Mu: 0, Sigma: 1}, r, 50)
		ps := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
		qs, err := Quantiles(xs, ps)
		if err != nil {
			return false
		}
		for i := 1; i < len(qs); i++ {
			if qs[i-1] > qs[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExtremeQuantileExponentialTail(t *testing.T) {
	// For Exponential(1), the true 0.999 quantile is ln(1000) ≈ 6.9078.
	r := rng.New(404)
	xs := rng.SampleN(rng.ExponentialDist{Rate: 1}, r, 20000)
	q, err := ExtremeQuantile(xs, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(1000)
	if math.Abs(q-want)/want > 0.15 {
		t.Fatalf("ExtremeQuantile(0.999) = %g, want ≈ %g", q, want)
	}
}

func TestExtremeQuantileLowerTail(t *testing.T) {
	r := rng.New(405)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = -r.Exponential(1)
	}
	q, err := ExtremeQuantile(xs, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	want := -math.Log(1000)
	if math.Abs(q-want)/math.Abs(want) > 0.15 {
		t.Fatalf("ExtremeQuantile(0.001) = %g, want ≈ %g", q, want)
	}
}

func TestExtremeQuantileBulkFallsBack(t *testing.T) {
	r := rng.New(406)
	xs := rng.SampleN(rng.UniformDist{Lo: 0, Hi: 1}, r, 5000)
	qe, err := ExtremeQuantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	qb, _ := Quantile(xs, 0.5)
	if qe != qb {
		t.Fatalf("bulk ExtremeQuantile %g != empirical %g", qe, qb)
	}
}

func TestMeanCICoverage(t *testing.T) {
	// 95% CI should cover the true mean ≈ 95% of the time.
	parent := rng.New(500)
	covered := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		r := parent.Split()
		xs := rng.SampleN(rng.NormalDist{Mu: 10, Sigma: 2}, r, 100)
		mean, hw := MeanCI(xs, 0.95)
		if math.Abs(mean-10) <= hw {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Fatalf("CI coverage = %g, want ≈ 0.95", frac)
	}
}

func TestMeanCILevelDomain(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	wantMean := Mean(xs)
	// Out-of-domain levels: the mean is still reported but the
	// half-width collapses to 0 instead of ±Inf/NaN (level ≥ 1 used to
	// reach NormalQuantile with p ≥ 1).
	for _, level := range []float64{0, -0.5, 1, 1.5, 2} {
		mean, hw := MeanCI(xs, level)
		if mean != wantMean {
			t.Fatalf("MeanCI(level=%g) mean = %g, want %g", level, mean, wantMean)
		}
		if hw != 0 {
			t.Fatalf("MeanCI(level=%g) half-width = %g, want 0", level, hw)
		}
	}
	// In-domain level still produces a finite positive half-width.
	if _, hw := MeanCI(xs, 0.95); !(hw > 0) || math.IsInf(hw, 0) || math.IsNaN(hw) {
		t.Fatalf("MeanCI(0.95) half-width = %g, want finite > 0", hw)
	}
	// Wider confidence demands a wider interval.
	_, hw90 := MeanCI(xs, 0.90)
	_, hw99 := MeanCI(xs, 0.99)
	if !(hw99 > hw90) {
		t.Fatalf("half-width at 0.99 (%g) not wider than at 0.90 (%g)", hw99, hw90)
	}
}

// TestExtremeQuantileCalibrated checks the tail estimator against exact
// quantiles at p = 0.999 over pinned replications at n = 1 000 to
// 64 000 (fewer where the error is smaller). The bounds, fixed before
// the run: on Normal(0, 1) data, and on LogNormal(0, 1) data on the log
// scale, the mean error (bias) is under 0.1σ at every n, where σ = 1 is
// the scale parameter, and the root-mean-square error falls strictly as
// n grows. An estimator with a misfitted tail shape has a bias that does
// not shrink with n, so it fails both bounds.
func TestExtremeQuantileCalibrated(t *testing.T) {
	const p = 0.999
	z := rng.NormalQuantile(p)
	dists := []struct {
		name string
		of   func(z float64) float64 // the variate as a function of a standard normal
		err  func(q float64) float64 // an estimate's error in units of σ
	}{
		{"normal", func(z float64) float64 { return z }, func(q float64) float64 { return q - z }},
		{"lognormal", math.Exp, func(q float64) float64 { return math.Log(q) - z }},
	}
	prevRMSE := make([]float64, len(dists))
	for _, c := range []struct{ n, reps int }{{1000, 400}, {4000, 400}, {16000, 200}, {64000, 100}} {
		r := rng.New(uint64(c.n))
		bias := make([]float64, len(dists))
		mse := make([]float64, len(dists))
		xs := make([]float64, c.n)
		for rep := 0; rep < c.reps; rep++ {
			draws := rng.SampleN(rng.NormalDist{Mu: 0, Sigma: 1}, r, c.n)
			for d, dist := range dists {
				for i, v := range draws {
					xs[i] = dist.of(v)
				}
				q, err := ExtremeQuantile(xs, p)
				if err != nil {
					t.Fatal(err)
				}
				e := dist.err(q)
				bias[d] += e / float64(c.reps)
				mse[d] += e * e / float64(c.reps)
			}
		}
		for d, dist := range dists {
			rmse := math.Sqrt(mse[d])
			t.Logf("%s n=%d: bias %+.4fσ, RMSE %.4fσ", dist.name, c.n, bias[d], rmse)
			if !(math.Abs(bias[d]) < 0.1) {
				t.Errorf("%s n=%d: bias %+.4fσ, want under 0.1σ", dist.name, c.n, bias[d])
			}
			if prevRMSE[d] > 0 && !(rmse < prevRMSE[d]) {
				t.Errorf("%s n=%d: RMSE %.4fσ did not fall from %.4fσ", dist.name, c.n, rmse, prevRMSE[d])
			}
			prevRMSE[d] = rmse
		}
	}
}
