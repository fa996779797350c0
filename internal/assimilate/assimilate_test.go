package assimilate

import (
	"errors"
	"math"
	"testing"

	"modeldata/internal/rng"
)

func TestResamplePreservesDistribution(t *testing.T) {
	// A weighted sample with atoms 0 and 1, weights 0.3/0.7.
	ps := []Weighted[float64]{}
	for i := 0; i < 1000; i++ {
		x := 0.0
		w := 0.3 / 500
		if i >= 500 {
			x = 1
			w = 0.7 / 500
		}
		ps = append(ps, Weighted[float64]{X: x, W: w})
	}
	out := Resample(ps, rng.New(3))
	if len(out) != 1000 {
		t.Fatalf("resampled size = %d", len(out))
	}
	mean := 0.0
	for _, p := range out {
		if p.W != 1.0/1000 {
			t.Fatal("resampled weights not uniform")
		}
		mean += p.X
	}
	mean /= 1000
	if math.Abs(mean-0.7) > 0.05 {
		t.Fatalf("resampled mean = %g, want ≈ 0.7", mean)
	}
}

func TestESS(t *testing.T) {
	uniform := []Weighted[int]{{X: 1, W: 0.25}, {X: 2, W: 0.25}, {X: 3, W: 0.25}, {X: 4, W: 0.25}}
	if got := ESS(uniform); math.Abs(got-4) > 1e-12 {
		t.Fatalf("uniform ESS = %g", got)
	}
	degenerate := []Weighted[int]{{X: 1, W: 1}, {X: 2, W: 0}}
	if got := ESS(degenerate); math.Abs(got-1) > 1e-12 {
		t.Fatalf("degenerate ESS = %g", got)
	}
	if ESS([]Weighted[int]{}) != 0 {
		t.Fatal("empty ESS")
	}
}

// linearGaussianHMM builds the canonical test model
// X₁ ~ N(0, 1); Xₙ = a·Xₙ₋₁ + N(0, q²); Yₙ = Xₙ + N(0, r²),
// for which the Kalman filter gives the exact posterior.
func linearGaussianHMM(a, q, obsSigma float64) Model[float64, float64] {
	return BootstrapModel[float64, float64](
		func(r *rng.Stream) float64 { return r.Normal(0, 1) },
		func(prev float64, r *rng.Stream) float64 { return a*prev + r.Normal(0, q) },
		func(x, y float64) float64 {
			return rng.NormalDist{Mu: x, Sigma: obsSigma}.LogPDF(y)
		},
	)
}

// kalman runs the exact filter for the same model.
func kalman(a, q, obsSigma float64, ys []float64) (means []float64) {
	m, p := 0.0, 1.0
	r2 := obsSigma * obsSigma
	for i, y := range ys {
		if i > 0 {
			m = a * m
			p = a*a*p + q*q
		}
		k := p / (p + r2)
		m += k * (y - m)
		p *= 1 - k
		means = append(means, m)
	}
	return means
}

func TestParticleFilterTracksKalman(t *testing.T) {
	const a, q, obsSigma = 0.9, 0.5, 0.4
	// Generate a synthetic trajectory.
	r := rng.New(10)
	x := r.Normal(0, 1)
	var ys []float64
	for i := 0; i < 40; i++ {
		if i > 0 {
			x = a*x + r.Normal(0, q)
		}
		ys = append(ys, x+r.Normal(0, obsSigma))
	}
	exact := kalman(a, q, obsSigma, ys)

	f, err := NewFilter(linearGaussianHMM(a, q, obsSigma), 4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range ys {
		ps, err := f.Step(y)
		if err != nil {
			t.Fatal(err)
		}
		est := weightedMean(ps)
		if math.Abs(est-exact[i]) > 0.15 {
			t.Fatalf("step %d: PF mean %g vs Kalman %g", i, est, exact[i])
		}
	}
}

func TestSISCollapsesWithoutResampling(t *testing.T) {
	const a, q, obsSigma = 0.9, 0.5, 0.4
	r := rng.New(12)
	var ys []float64
	x := 0.0
	for i := 0; i < 50; i++ {
		x = a*x + r.Normal(0, q)
		ys = append(ys, x+r.Normal(0, obsSigma))
	}
	run := func(disable bool) float64 {
		f, err := NewFilter(linearGaussianHMM(a, q, obsSigma), 500, 13)
		if err != nil {
			t.Fatal(err)
		}
		f.DisableResampling = disable
		for _, y := range ys {
			if _, err := f.Step(y); err != nil {
				t.Fatal(err)
			}
		}
		return f.ESSTrace[len(f.ESSTrace)-1]
	}
	sisESS := run(true)
	sirESS := run(false)
	if sisESS > 20 {
		t.Fatalf("SIS final ESS = %g, expected collapse toward 1", sisESS)
	}
	if sirESS < 50 {
		t.Fatalf("SIR final ESS = %g, resampling failed to prevent collapse", sirESS)
	}
}

func TestFilterValidation(t *testing.T) {
	if _, err := NewFilter(linearGaussianHMM(1, 1, 1), 0, 1); !errors.Is(err, ErrBadN) {
		t.Fatalf("got %v", err)
	}
	if _, err := NewFilter(Model[float64, float64]{}, 10, 1); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("got %v", err)
	}
	f, err := NewFilter(linearGaussianHMM(1, 1, 1), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := f.Step(0.5)
	if err != nil || len(ps) != 10 {
		t.Fatalf("particles: %d, %v", len(ps), err)
	}
}

func TestFilterDeterministic(t *testing.T) {
	run := func() float64 {
		f, err := NewFilter(linearGaussianHMM(0.9, 0.5, 0.4), 200, 77)
		if err != nil {
			t.Fatal(err)
		}
		var last float64
		for _, y := range []float64{0.1, 0.5, -0.2, 0.9} {
			ps, err := f.Step(y)
			if err != nil {
				t.Fatal(err)
			}
			last = weightedMean(ps)
		}
		return last
	}
	if run() != run() {
		t.Fatal("filter not deterministic for fixed seed")
	}
}

func TestNormalizeLogWeightsStability(t *testing.T) {
	// Extremely negative log weights must not underflow to collapse.
	w, err := normalizeLogWeights([]float64{-1e6, -1e6 + math.Log(3)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[1]-0.75) > 1e-9 || math.Abs(w[0]-0.25) > 1e-9 {
		t.Fatalf("weights = %v", w)
	}
}

func TestAdaptiveResamplingTracksKalman(t *testing.T) {
	const a, q, obsSigma = 0.9, 0.5, 0.4
	r := rng.New(30)
	x := r.Normal(0, 1)
	var ys []float64
	for i := 0; i < 40; i++ {
		if i > 0 {
			x = a*x + r.Normal(0, q)
		}
		ys = append(ys, x+r.Normal(0, obsSigma))
	}
	exact := kalman(a, q, obsSigma, ys)

	run := func(threshold float64) (maxErr float64, resamples int) {
		f, err := NewFilter(linearGaussianHMM(a, q, obsSigma), 3000, 31)
		if err != nil {
			t.Fatal(err)
		}
		f.ResampleThreshold = threshold
		for i, y := range ys {
			ps, err := f.Step(y)
			if err != nil {
				t.Fatal(err)
			}
			est := weightedMean(ps)
			if e := math.Abs(est - exact[i]); e > maxErr {
				maxErr = e
			}
		}
		// The filter resamples at every step whose ESS falls below
		// threshold·N, and at every step when the threshold is zero.
		for _, ess := range f.ESSTrace {
			if threshold == 0 || ess < threshold*3000 {
				resamples++
			}
		}
		return maxErr, resamples
	}
	errAlways, nAlways := run(0)
	errAdaptive, nAdaptive := run(0.5)
	if nAdaptive >= nAlways {
		t.Fatalf("adaptive resampled %d times vs %d always", nAdaptive, nAlways)
	}
	if errAdaptive > errAlways*2+0.1 {
		t.Fatalf("adaptive accuracy degraded: %g vs %g", errAdaptive, errAlways)
	}
	if nAlways != 40 {
		t.Fatalf("always-resample count = %d", nAlways)
	}
}

// weightedMean is Σ wᵢ·xᵢ over a normalized weighted sample.
func weightedMean(ps []Weighted[float64]) float64 {
	m := 0.0
	for _, p := range ps {
		m += p.W * p.X
	}
	return m
}
