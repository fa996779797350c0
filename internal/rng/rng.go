// Package rng provides deterministic, splittable pseudo-random number
// streams and a library of probability distributions.
//
// Every stochastic component in this repository draws randomness from an
// explicit *Stream rather than a global source, so that any simulation,
// Monte Carlo estimate, or experiment can be reproduced exactly from a
// seed. Streams may be split into statistically independent child streams
// (Split), which is how parallel workers, Monte Carlo replications, and
// agent populations obtain private randomness without sharing state.
//
// The generator is xoshiro256**, seeded through SplitMix64, following the
// recommendations of Blackman and Vigna. It is not cryptographically
// secure; it is intended for simulation.
package rng

import (
	"fmt"
	"math"
)

// Stream is a deterministic pseudo-random number stream. A Stream is not
// safe for concurrent use; use Split to derive independent streams for
// concurrent workers.
type Stream struct {
	s [4]uint64
	// haveGauss caches the second variate of the Box-Muller pair.
	haveGauss bool
	gauss     float64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from the given seed. Two Streams created
// with the same seed produce identical sequences.
func New(seed uint64) *Stream {
	st := seed
	var r Stream
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	// xoshiro256** must not be seeded with all zeros; SplitMix64 cannot
	// produce four consecutive zero outputs, so r.s is already valid.
	return &r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// NamespaceSeed maps (label, seed) into the seed namespace rooted at
// base: a stream seeded from base absorbs the label one byte at a time
// (folding the byte into the state, then splitting a substream), and
// the caller's seed is diffused through the final substream's output
// with SplitMix64. Distinct labels yield statistically independent
// namespaces, so a multi-tenant service can hand every tenant its own
// seed space while each tenant still addresses runs by small seeds
// (0, 1, 2, …). The mapping is pure: the same (base, label, seed)
// always produces the same effective seed, which keeps namespaced
// Monte Carlo answers exactly reproducible outside the service.
func NamespaceSeed(base uint64, label string, seed uint64) uint64 {
	r := New(base)
	for i := 0; i < len(label); i++ {
		r.s[0] ^= uint64(label[i])
		// One generator step diffuses the byte into s[1], the word the
		// next Split's output (and thus the child seed) derives from.
		r.Uint64()
		r = r.Split()
	}
	st := r.Split().Uint64() ^ seed
	return splitMix64(&st)
}

// Split derives a child stream that is statistically independent of the
// parent's subsequent output. The parent is advanced.
func (r *Stream) Split() *Stream {
	// Derive the child seed material from the parent stream, then
	// re-diffuse through SplitMix64 so parent and child sequences do not
	// overlap in practice.
	st := r.Uint64() ^ 0xd1b54a32d192ed03
	var c Stream
	for i := range c.s {
		c.s[i] = splitMix64(&st)
	}
	return &c
}

// SplitN returns n independent child streams.
func (r *Stream) SplitN(n int) []*Stream {
	out := make([]*Stream, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Float64 returns a uniform variate in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform variate in (0, 1), never exactly zero,
// suitable as input to inverse-CDF transforms that take logarithms.
func (r *Stream) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul128(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul128(x, bound)
		}
	}
	return int(hi)
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask32
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask32) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// Perm returns a uniformly random permutation of {0, 1, ..., n-1}.
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher-Yates).
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	return r.Float64() < p
}

// Normal returns a normal variate with the given mean and standard
// deviation. It panics if stddev < 0.
func (r *Stream) Normal(mean, stddev float64) float64 {
	if stddev < 0 {
		panic(fmt.Sprintf("rng: Normal called with stddev=%g", stddev))
	}
	return mean + stddev*r.StdNormal()
}

// StdNormal returns a standard normal variate via the Box-Muller
// transform, caching the second variate of each generated pair.
func (r *Stream) StdNormal() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	u1 := r.Float64Open()
	u2 := r.Float64()
	rad := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	r.gauss = rad * math.Sin(theta)
	r.haveGauss = true
	return rad * math.Cos(theta)
}

// Exponential returns an exponential variate with the given rate
// parameter theta (mean 1/theta), matching the paper's density
// f(x; θ) = θ e^{-θx}. It panics if rate <= 0.
func (r *Stream) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: Exponential called with rate=%g", rate))
	}
	return -math.Log(r.Float64Open()) / rate
}

// Lognormal returns a lognormal variate whose logarithm has the given
// mean and standard deviation.
func (r *Stream) Lognormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Poisson returns a Poisson variate with mean lambda. It panics if
// lambda < 0. For large lambda it uses the PTRS rejection method of
// Hörmann; for small lambda, Knuth's product method.
func (r *Stream) Poisson(lambda float64) int {
	switch {
	case lambda < 0:
		panic(fmt.Sprintf("rng: Poisson called with lambda=%g", lambda))
	case lambda == 0: // exact-zero rate is the degenerate always-zero draw
		return 0
	case lambda < 30:
		// Knuth: multiply uniforms until the product drops below e^-λ.
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return r.poissonPTRS(lambda)
	}
}

// poissonPTRS implements the transformed-rejection sampler for Poisson
// variates with lambda >= 10.
func (r *Stream) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-lg {
			return int(k)
		}
	}
}

// Gamma returns a gamma variate with the given shape and scale using the
// Marsaglia-Tsang method. It panics if shape <= 0 or scale <= 0.
func (r *Stream) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("rng: Gamma called with shape=%g scale=%g", shape, scale))
	}
	if shape < 1 {
		// Boost to shape+1 and correct with a power of a uniform.
		u := r.Float64Open()
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.StdNormal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Categorical returns an index in [0, len(weights)) drawn with
// probability proportional to weights[i]. It panics if the weights are
// empty, negative, or sum to zero.
func (r *Stream) Categorical(weights []float64) int {
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("rng: Categorical weight[%d]=%g", i, w))
		}
		total += w
	}
	if len(weights) == 0 || total == 0 { // exact-zero mass check before dividing by total
		panic("rng: Categorical called with empty or zero weights")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
