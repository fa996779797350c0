package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"modeldata/internal/rng"
)

func TestKDEIntegratesToOne(t *testing.T) {
	r := rng.New(42)
	samples := rng.SampleN(rng.NormalDist{Mu: 0, Sigma: 1}, r, 500)
	for _, kern := range []Kernel{GaussianKernel, epanechnikov} {
		kde, err := NewKDE(samples, 0.3, kern)
		if err != nil {
			t.Fatal(err)
		}
		// Trapezoidal integral over a wide range.
		sum := 0.0
		const lo, hi, steps = -8.0, 8.0, 3200
		dx := (hi - lo) / steps
		for i := 0; i <= steps; i++ {
			w := 1.0
			if i == 0 || i == steps {
				w = 0.5
			}
			sum += w * kde.Density(lo+float64(i)*dx)
		}
		sum *= dx
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("KDE integral = %g, want ≈ 1", sum)
		}
	}
}

func TestKDERecoversNormalDensity(t *testing.T) {
	r := rng.New(43)
	samples := rng.SampleN(rng.NormalDist{Mu: 2, Sigma: 1}, r, 5000)
	kde, err := NewKDE(samples, 0, nil) // Silverman + Gaussian defaults
	if err != nil {
		t.Fatal(err)
	}
	d := rng.NormalDist{Mu: 2, Sigma: 1}
	for _, x := range []float64{0.5, 1.5, 2, 2.5, 3.5} {
		want := math.Exp(d.LogPDF(x))
		got := kde.Density(x)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("density(%g) = %g, want ≈ %g", x, got, want)
		}
	}
}

func TestKDEEmptySample(t *testing.T) {
	if _, err := NewKDE(nil, 1, nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("NewKDE(nil) should be ErrEmpty")
	}
}

func TestKDEConstantSample(t *testing.T) {
	kde, err := NewKDE([]float64{5, 5, 5}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kde.Bandwidth <= 0 {
		t.Fatal("bandwidth fallback failed")
	}
	if kde.Density(5) <= 0 {
		t.Fatal("density at the atom should be positive")
	}
}

func TestKDELogDensity(t *testing.T) {
	kde, err := NewKDE([]float64{0}, 1, epanechnikov)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(kde.LogDensity(10), -1) {
		t.Fatal("LogDensity outside compact support should be -Inf")
	}
	if got, want := kde.LogDensity(0), math.Log(0.75); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogDensity(0) = %g, want %g", got, want)
	}
}

func TestKernelsSymmetricNonIncreasing(t *testing.T) {
	// The paper requires K symmetric, K(0) > 0, non-increasing in |x|.
	kerns := map[string]Kernel{
		"gaussian": GaussianKernel, "epanechnikov": epanechnikov,
	}
	for name, k := range kerns {
		if k(0) <= 0 {
			t.Errorf("%s: K(0) = %g", name, k(0))
		}
		err := quick.Check(func(raw float64) bool {
			x := math.Mod(math.Abs(raw), 5)
			if math.Abs(k(x)-k(-x)) > 1e-12 {
				return false
			}
			return k(x) <= k(x/2)+1e-12
		}, &quick.Config{MaxCount: 100})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSilvermanBandwidth(t *testing.T) {
	if SilvermanBandwidth([]float64{1}) != 0 {
		t.Fatal("singleton bandwidth should be 0")
	}
	r := rng.New(44)
	xs := rng.SampleN(rng.NormalDist{Mu: 0, Sigma: 2}, r, 1000)
	h := SilvermanBandwidth(xs)
	want := 1.06 * 2 * math.Pow(1000, -0.2)
	if math.Abs(h-want)/want > 0.1 {
		t.Fatalf("Silverman bandwidth = %g, want ≈ %g", h, want)
	}
}

// epanechnikov is K(x) = 3/4·(1−x²) on [−1, 1]: a kernel with compact
// support.
func epanechnikov(x float64) float64 {
	if x < -1 || x > 1 {
		return 0
	}
	return 0.75 * (1 - x*x)
}
