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
//
// Normal variates come from one generator, StdNormal, a 128-layer
// Ziggurat that spends one Uint64 on most draws and keeps no state
// between them, so a Stream is its four words of generator state and
// nothing else.
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

// StdNormal returns a standard normal variate by the Ziggurat method
// of Marsaglia and Tsang (J. Stat. Softw. 5(8), 2000), in Doornik's
// ZIGNOR form (2005). Each attempt draws one Uint64 b: its low 7 bits
// pick the layer i and its high 53 bits, as a signed integer, give
// u ∈ [−1, 1), so the layer and the value share no bits. Most attempts
// accept u·x[i] at once; the base layer falls through to the tail beyond
// zigR, and the other layers to a wedge test against the density.
func (r *Stream) StdNormal() float64 {
	for {
		b := r.Uint64()
		i := b & (zigLayers - 1)
		u := float64(int64(b)>>11) * 0x1p-52
		if math.Abs(u) < zig.ratio[i] {
			return u * zig.x[i]
		}
		if i == 0 {
			return r.normalTail(u < 0)
		}
		// x lies in the wedge at the layer's edge: accept it when a
		// uniform height f(x[i+1]) + U·(f(x[i]) − f(x[i+1])) in the
		// layer lies under f(x), both sides divided by f(x).
		x := u * zig.x[i]
		f0 := math.Exp(-0.5 * (zig.x[i]*zig.x[i] - x*x))
		f1 := math.Exp(-0.5 * (zig.x[i+1]*zig.x[i+1] - x*x))
		if f1+r.Float64()*(f0-f1) < 1 {
			return x
		}
	}
}

// normalTail draws from the standard normal beyond zigR (below −zigR
// when negative) by Marsaglia's exponential rejection.
func (r *Stream) normalTail(negative bool) float64 {
	for {
		x := math.Log(r.Float64Open()) / zigR
		y := math.Log(r.Float64Open())
		if -2*y >= x*x {
			if negative {
				return x - zigR
			}
			return zigR - x
		}
	}
}

// The Ziggurat covers the normal density f(x) = exp(−x²/2) with
// zigLayers layers of equal area zigV: the base layer is the rectangle
// under f(zigR) out to zigR plus the tail beyond it, and layer i ≥ 1
// spans [0, x[i]) between heights f(x[i]) and f(x[i+1]).
const (
	zigLayers = 128
	zigR      = 3.442619855899
	zigV      = 9.91256303526217e-3
)

// zig holds the layer edges x[0..zigLayers] (x[0] = zigV/f(zigR) is the
// base layer's equivalent width, x[zigLayers] = 0) and the ratios
// x[i+1]/x[i] below which a point of layer i lies inside the density.
var zig = newZiggurat()

type ziggurat struct {
	x     [zigLayers + 1]float64
	ratio [zigLayers]float64
}

func newZiggurat() (z ziggurat) {
	f := math.Exp(-0.5 * zigR * zigR)
	z.x[0] = zigV / f
	z.x[1] = zigR
	for i := 2; i < zigLayers; i++ {
		z.x[i] = math.Sqrt(-2 * math.Log(zigV/z.x[i-1]+f))
		f = math.Exp(-0.5 * z.x[i] * z.x[i])
	}
	for i := range z.ratio {
		z.ratio[i] = z.x[i+1] / z.x[i]
	}
	return z
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
