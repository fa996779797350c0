package rng

import (
	"fmt"
	"math"
	"sort"
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

// LognormalDist is the lognormal distribution: exp(N(Mu, Sigma^2)).
type LognormalDist struct {
	Mu    float64
	Sigma float64
}

// Sample draws a lognormal variate.
func (d LognormalDist) Sample(r *Stream) float64 { return r.Lognormal(d.Mu, d.Sigma) }

// Mean returns exp(Mu + Sigma²/2).
func (d LognormalDist) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// Var returns (exp(Sigma²)−1)·exp(2Mu+Sigma²).
func (d LognormalDist) Var() float64 {
	s2 := d.Sigma * d.Sigma
	return (math.Exp(s2) - 1) * math.Exp(2*d.Mu+s2)
}

// LogPDF returns the lognormal log density at x.
func (d LognormalDist) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	z := (math.Log(x) - d.Mu) / d.Sigma
	return -0.5*z*z - math.Log(x*d.Sigma) - 0.5*math.Log(2*math.Pi)
}

func (d LognormalDist) String() string { return fmt.Sprintf("Lognormal(μ=%g, σ=%g)", d.Mu, d.Sigma) }

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

// PoissonDist is the Poisson distribution with mean Lambda.
type PoissonDist struct {
	Lambda float64
}

// Sample draws a Poisson variate (as a float64 for Dist compatibility).
func (d PoissonDist) Sample(r *Stream) float64 { return float64(r.Poisson(d.Lambda)) }

// Mean returns Lambda.
func (d PoissonDist) Mean() float64 { return d.Lambda }

// Var returns Lambda.
func (d PoissonDist) Var() float64 { return d.Lambda }

// LogPDF returns the log probability mass at x (x must be a
// non-negative integer value).
func (d PoissonDist) LogPDF(x float64) float64 {
	if x < 0 || x != math.Trunc(x) { // integrality test: Poisson support is exact integers
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(x + 1)
	return x*math.Log(d.Lambda) - d.Lambda - lg
}

func (d PoissonDist) String() string { return fmt.Sprintf("Poisson(λ=%g)", d.Lambda) }

// BernoulliDist takes value 1 with probability P and 0 otherwise.
type BernoulliDist struct {
	P float64
}

// Sample draws 0 or 1.
func (d BernoulliDist) Sample(r *Stream) float64 {
	if r.Bool(d.P) {
		return 1
	}
	return 0
}

// Mean returns P.
func (d BernoulliDist) Mean() float64 { return d.P }

// Var returns P(1−P).
func (d BernoulliDist) Var() float64 { return d.P * (1 - d.P) }

// LogPDF returns the log probability mass at x ∈ {0, 1}.
func (d BernoulliDist) LogPDF(x float64) float64 {
	switch x { // Bernoulli support is exactly {0, 1}; anything else has zero mass
	case 1:
		return math.Log(d.P)
	case 0:
		return math.Log(1 - d.P)
	}
	return math.Inf(-1)
}

func (d BernoulliDist) String() string { return fmt.Sprintf("Bernoulli(p=%g)", d.P) }

// GammaDist is the gamma distribution with the given Shape and Scale.
type GammaDist struct {
	Shape, Scale float64
}

// Sample draws a gamma variate.
func (d GammaDist) Sample(r *Stream) float64 { return r.Gamma(d.Shape, d.Scale) }

// Mean returns Shape·Scale.
func (d GammaDist) Mean() float64 { return d.Shape * d.Scale }

// Var returns Shape·Scale².
func (d GammaDist) Var() float64 { return d.Shape * d.Scale * d.Scale }

// LogPDF returns the gamma log density at x.
func (d GammaDist) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(d.Shape)
	return (d.Shape-1)*math.Log(x) - x/d.Scale - lg - d.Shape*math.Log(d.Scale)
}

func (d GammaDist) String() string { return fmt.Sprintf("Gamma(k=%g, θ=%g)", d.Shape, d.Scale) }

// EmpiricalDist resamples uniformly from a fixed set of observations
// (the bootstrap distribution). LogPDF is not defined for it.
type EmpiricalDist struct {
	Values []float64
}

// Sample draws one of the stored observations uniformly at random.
func (d EmpiricalDist) Sample(r *Stream) float64 { return d.Values[r.Intn(len(d.Values))] }

// Mean returns the sample mean.
func (d EmpiricalDist) Mean() float64 {
	s := 0.0
	for _, v := range d.Values {
		s += v
	}
	return s / float64(len(d.Values))
}

// Var returns the population variance of the stored observations.
func (d EmpiricalDist) Var() float64 {
	m := d.Mean()
	s := 0.0
	for _, v := range d.Values {
		dv := v - m
		s += dv * dv
	}
	return s / float64(len(d.Values))
}

// LogPDF is undefined for an empirical distribution; it returns NaN.
func (d EmpiricalDist) LogPDF(float64) float64 { return math.NaN() }

func (d EmpiricalDist) String() string { return fmt.Sprintf("Empirical(n=%d)", len(d.Values)) }

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

// SortedSampleN draws n variates and returns them sorted ascending,
// which is convenient for quantile checks in tests.
func SortedSampleN(d Dist, r *Stream, n int) []float64 {
	out := SampleN(d, r, n)
	sort.Float64s(out)
	return out
}
