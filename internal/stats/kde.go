package stats

import "math"

// Kernel is a KDE kernel function: non-negative, symmetric, with
// K(0) > 0 and K(x) non-increasing in |x| (the paper's definition in
// §3.2).
type Kernel func(x float64) float64

// GaussianKernel is the standard normal density kernel.
func GaussianKernel(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// LaplaceKernel is K(x) = e^{−|x|}/2, the example kernel given in the
// paper (normalized to integrate to one).
func LaplaceKernel(x float64) float64 {
	return 0.5 * math.Exp(-math.Abs(x))
}

// EpanechnikovKernel is the minimum-variance kernel
// K(x) = 3/4·(1−x²) on [−1, 1].
func EpanechnikovKernel(x float64) float64 {
	if x < -1 || x > 1 {
		return 0
	}
	return 0.75 * (1 - x*x)
}

// KDE is a univariate kernel density estimator
// f̂(x) = (Mh)⁻¹ Σ K((x−xᵢ)/h), exactly the estimator used in §3.2 to
// approximate the particle-filter proposal and transition densities.
type KDE struct {
	Samples   []float64
	Bandwidth float64
	Kernel    Kernel
}

// NewKDE constructs a KDE over the samples. If bandwidth <= 0 it is
// chosen by Silverman's rule of thumb; if kernel is nil the Gaussian
// kernel is used. It returns an error for an empty sample.
func NewKDE(samples []float64, bandwidth float64, kernel Kernel) (*KDE, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	if kernel == nil {
		kernel = GaussianKernel
	}
	if bandwidth <= 0 {
		bandwidth = SilvermanBandwidth(samples)
		if bandwidth <= 0 {
			// Constant sample: fall back to a nominal width so the
			// estimator remains a valid density.
			bandwidth = 1e-3
		}
	}
	cp := make([]float64, len(samples))
	copy(cp, samples)
	return &KDE{Samples: cp, Bandwidth: bandwidth, Kernel: kernel}, nil
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 1.06·σ̂·n^(−1/5), with σ̂ the sample standard deviation.
func SilvermanBandwidth(samples []float64) float64 {
	n := float64(len(samples))
	if n < 2 {
		return 0
	}
	return 1.06 * StdDev(samples) * math.Pow(n, -0.2)
}

// Density evaluates the estimated density at x.
func (k *KDE) Density(x float64) float64 {
	s := 0.0
	for _, xi := range k.Samples {
		s += k.Kernel((x - xi) / k.Bandwidth)
	}
	return s / (float64(len(k.Samples)) * k.Bandwidth)
}

// LogDensity returns log of the estimated density at x, or -Inf where
// the estimate is zero.
func (k *KDE) LogDensity(x float64) float64 {
	d := k.Density(x)
	if d <= 0 {
		return math.Inf(-1)
	}
	return math.Log(d)
}
