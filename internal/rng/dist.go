package rng

import (
	"fmt"
	"math"
)

// Dist is a univariate probability distribution that can be sampled and
// whose density, CDF, and moments are available where tractable. It is
// the common currency between VG functions, calibration targets, and
// sensor models.
type Dist interface {
	// Sample draws one variate using the given stream.
	Sample(r *Stream) float64
	// Mean returns the distribution mean.
	Mean() float64
	// Var returns the distribution variance.
	Var() float64
	// LogPDF returns the log density at x (or log probability mass for
	// discrete distributions). It returns -Inf outside the support.
	LogPDF(x float64) float64
	// String describes the distribution.
	String() string
}

// NormalDist is the normal distribution N(Mu, Sigma^2).
type NormalDist struct {
	Mu    float64
	Sigma float64
}

// Sample draws a normal variate.
func (d NormalDist) Sample(r *Stream) float64 { return r.Normal(d.Mu, d.Sigma) }

// Mean returns Mu.
func (d NormalDist) Mean() float64 { return d.Mu }

// Var returns Sigma^2.
func (d NormalDist) Var() float64 { return d.Sigma * d.Sigma }

// LogPDF returns the normal log density at x.
func (d NormalDist) LogPDF(x float64) float64 {
	if d.Sigma <= 0 {
		if x == d.Mu { // degenerate sigma=0 distribution is a point mass exactly at Mu
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	z := (x - d.Mu) / d.Sigma
	return -0.5*z*z - math.Log(d.Sigma) - 0.5*math.Log(2*math.Pi)
}

func (d NormalDist) String() string { return fmt.Sprintf("Normal(μ=%g, σ=%g)", d.Mu, d.Sigma) }

// ExponentialDist is the exponential distribution with density
// f(x; θ) = θ e^{-θx}, the running example in §3.1 of the paper.
type ExponentialDist struct {
	Rate float64 // θ
}

// Sample draws an exponential variate.
func (d ExponentialDist) Sample(r *Stream) float64 { return r.Exponential(d.Rate) }

// Mean returns 1/θ.
func (d ExponentialDist) Mean() float64 { return 1 / d.Rate }

// Var returns 1/θ².
func (d ExponentialDist) Var() float64 { return 1 / (d.Rate * d.Rate) }

// LogPDF returns log θ − θx for x ≥ 0.
func (d ExponentialDist) LogPDF(x float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	return math.Log(d.Rate) - d.Rate*x
}

func (d ExponentialDist) String() string { return fmt.Sprintf("Exponential(θ=%g)", d.Rate) }

// UniformDist is the continuous uniform distribution on [Lo, Hi).
type UniformDist struct {
	Lo, Hi float64
}

// Sample draws a uniform variate on [Lo, Hi).
func (d UniformDist) Sample(r *Stream) float64 { return d.Lo + (d.Hi-d.Lo)*r.Float64() }

// Mean returns (Lo+Hi)/2.
func (d UniformDist) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// Var returns (Hi−Lo)²/12.
func (d UniformDist) Var() float64 { w := d.Hi - d.Lo; return w * w / 12 }

// LogPDF returns −log(Hi−Lo) inside the support.
func (d UniformDist) LogPDF(x float64) float64 {
	if x < d.Lo || x >= d.Hi {
		return math.Inf(-1)
	}
	return -math.Log(d.Hi - d.Lo)
}

func (d UniformDist) String() string { return fmt.Sprintf("Uniform[%g, %g)", d.Lo, d.Hi) }

// NormalQuantile returns the p-quantile of the standard normal
// distribution using the Beasley-Springer-Moro rational approximation.
// It panics if p is outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("rng: NormalQuantile called with p=%g", p))
	}
	// Coefficients from Moro (1995).
	a := [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		z := y * y
		num := y * (((a[3]*z+a[2])*z+a[1])*z + a[0])
		den := (((b[3]*z+b[2])*z+b[1])*z+b[0])*z + 1
		return num / den
	}
	z := p
	if y > 0 {
		z = 1 - p
	}
	k := math.Log(-math.Log(z))
	x := c[0]
	pow := 1.0
	for i := 1; i < 9; i++ {
		pow *= k
		x += c[i] * pow
	}
	if y < 0 {
		return -x
	}
	return x
}

// NormalCDF returns the standard normal cumulative distribution function
// evaluated at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// SampleN draws n variates from d into a new slice.
func SampleN(d Dist, r *Stream, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}
