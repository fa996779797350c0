// Package assimilate implements the sequential Monte Carlo toolkit of
// §3.2 of the paper, following the Doucet–Johansen presentation the
// paper uses: plain importance sampling, sequential importance sampling
// (SIS), resampling (SIR), and the particle filtering algorithm
// (Algorithm 2) for hidden Markov models. Data assimilation — fusing a
// simulation model with streaming sensor data — is the application
// built on top in internal/wildfire.
package assimilate

import (
	"context"
	"errors"
	"fmt"
	"math"

	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// Common errors.
var (
	ErrBadN        = errors.New("assimilate: particle count must be positive")
	ErrCollapsed   = errors.New("assimilate: all particle weights are zero or non-finite")
	ErrIncomplete  = errors.New("assimilate: model is missing required hooks")
	ErrNoparticles = errors.New("assimilate: filter has no particles (call Init first)")
)

// Weighted is a weighted sample.
type Weighted[S any] struct {
	X S
	W float64 // normalized weight
}

// ImportanceSample draws n samples from the proposal q and corrects
// them with the weight function, returning the normalized weighted
// sample and the estimate Ẑ of the normalizing constant (Eqs. 1–2 of
// §3.2). logW must return log(γ(x)/q(x)).
func ImportanceSample[S any](n int, sampleQ func(r *rng.Stream) S, logW func(S) float64, r *rng.Stream) ([]Weighted[S], float64, error) {
	if n <= 0 {
		return nil, 0, ErrBadN
	}
	xs := make([]S, n)
	lw := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = sampleQ(r)
		lw[i] = logW(xs[i])
	}
	w, sum, err := normalizeLogWeights(lw)
	if err != nil {
		return nil, 0, err
	}
	out := make([]Weighted[S], n)
	for i := range out {
		out[i] = Weighted[S]{X: xs[i], W: w[i]}
	}
	// Ẑ = (1/N) Σ w(Xⁱ); sum is in linear scale relative to max.
	return out, sum / float64(n), nil
}

// normalizeLogWeights converts log weights to normalized linear weights
// using the log-sum-exp trick; it also returns the linear-scale sum
// Σ exp(lwᵢ) for normalizing-constant estimation.
func normalizeLogWeights(lw []float64) ([]float64, float64, error) {
	maxLW := math.Inf(-1)
	for _, v := range lw {
		if v > maxLW {
			maxLW = v
		}
	}
	if math.IsInf(maxLW, -1) || math.IsNaN(maxLW) {
		return nil, 0, ErrCollapsed
	}
	w := make([]float64, len(lw))
	total := 0.0
	for i, v := range lw {
		w[i] = math.Exp(v - maxLW)
		total += w[i]
	}
	if total == 0 || math.IsNaN(total) { // exact zero means every weight underflowed: the collapse being detected
		return nil, 0, ErrCollapsed
	}
	linearSum := total * math.Exp(maxLW)
	for i := range w {
		w[i] /= total
	}
	return w, linearSum, nil
}

// EstimateWeighted computes Σ wᵢ·g(xᵢ) over a normalized weighted
// sample — the Monte Carlo approximation of ∫ g dπ.
func EstimateWeighted[S any](ps []Weighted[S], g func(S) float64) float64 {
	s := 0.0
	for _, p := range ps {
		s += p.W * g(p.X)
	}
	return s
}

// ESS returns the effective sample size 1/Σwᵢ² of a normalized weighted
// sample — the standard collapse diagnostic.
func ESS[S any](ps []Weighted[S]) float64 {
	s := 0.0
	for _, p := range ps {
		s += p.W * p.W
	}
	if s == 0 { // exact-zero guard before dividing; any nonzero sum is a valid ESS
		return 0
	}
	return 1 / s
}

// Resample draws a fresh equal-weight sample of the same size by
// systematic resampling on the normalized weights (the SIR step that
// prevents weight collapse and exponential variance growth).
func Resample[S any](ps []Weighted[S], r *rng.Stream) []Weighted[S] {
	n := len(ps)
	out := make([]Weighted[S], n)
	u := r.Float64() / float64(n)
	acc := 0.0
	j := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)/float64(n)
		for acc+ps[j].W < target && j < n-1 {
			acc += ps[j].W
			j++
		}
		out[i] = Weighted[S]{X: ps[j].X, W: 1 / float64(n)}
	}
	return out
}

// Model specifies a hidden Markov model plus proposal for particle
// filtering, in the decomposition of Algorithm 2:
//
//   - SampleInit draws X₁ⁱ ~ q₁(x₁ | y₁);
//   - LogWeightInit returns log[p₁(x₁)·p(y₁|x₁)/q₁(x₁|y₁)];
//   - SampleProposal draws Xₙⁱ ~ qₙ(xₙ | yₙ, x̄ₙ₋₁ⁱ);
//   - LogWeight returns log αₙ = log[p(yₙ|xₙ)·p(xₙ|xₙ₋₁)/qₙ(xₙ|yₙ,xₙ₋₁)].
type Model[S, Y any] struct {
	SampleInit     func(y Y, r *rng.Stream) S
	LogWeightInit  func(x S, y Y) float64
	SampleProposal func(prev S, y Y, r *rng.Stream) S
	LogWeight      func(x, prev S, y Y) float64
}

func (m Model[S, Y]) validate() error {
	if m.SampleInit == nil || m.LogWeightInit == nil || m.SampleProposal == nil || m.LogWeight == nil {
		return ErrIncomplete
	}
	return nil
}

// BootstrapModel builds the "bootstrap" filter of §3.2, the original
// Xue et al. formulation: the proposal is the state transition density
// itself (ignoring the observation), so the weights reduce to the
// observation likelihood.
func BootstrapModel[S, Y any](
	sampleInit func(r *rng.Stream) S,
	transition func(prev S, r *rng.Stream) S,
	obsLogLik func(x S, y Y) float64,
) Model[S, Y] {
	return Model[S, Y]{
		SampleInit:     func(y Y, r *rng.Stream) S { return sampleInit(r) },
		LogWeightInit:  func(x S, y Y) float64 { return obsLogLik(x, y) },
		SampleProposal: func(prev S, y Y, r *rng.Stream) S { return transition(prev, r) },
		LogWeight:      func(x, prev S, y Y) float64 { return obsLogLik(x, y) },
	}
}

// Filter runs Algorithm 2.
type Filter[S, Y any] struct {
	model Model[S, Y]
	n     int
	r     *rng.Stream
	// Workers bounds particle-level parallelism per Step; zero uses the
	// context default (see internal/parallel). Particle propagation and
	// weighting are embarrassingly parallel; each particle draws from a
	// substream split in particle order, so the filter trajectory is
	// bit-identical at any worker count. Model hooks must be safe for
	// concurrent calls with distinct streams.
	Workers int
	// Resampling may be disabled to obtain plain SIS, demonstrating
	// weight collapse.
	DisableResampling bool
	// ResampleThreshold enables adaptive resampling: the SIR resample
	// step runs only when the effective sample size drops below this
	// fraction of N (e.g. 0.5). Zero means resample every step
	// (Algorithm 2 as written). Ignored when DisableResampling is set.
	ResampleThreshold float64
	// Resamples counts resampling steps actually performed.
	Resamples int
	particles []Weighted[S]
	// cumLogW carries the running log weights w_n = w_{n−1}·α_n; after
	// a resampling step they reset to uniform (weight 1/N), which is
	// what keeps SIR from collapsing while pure SIS does.
	cumLogW []float64
	step    int
	// ESSTrace records the effective sample size before each
	// resampling decision.
	ESSTrace []float64
}

// NewFilter creates a particle filter with n particles.
func NewFilter[S, Y any](model Model[S, Y], n int, seed uint64) (*Filter[S, Y], error) {
	if n <= 0 {
		return nil, ErrBadN
	}
	if err := model.validate(); err != nil {
		return nil, err
	}
	return &Filter[S, Y]{model: model, n: n, r: rng.New(seed)}, nil
}

// Step assimilates the next observation on the default worker pool.
// See StepCtx.
func (f *Filter[S, Y]) Step(y Y) ([]Weighted[S], error) {
	return f.StepCtx(context.Background(), y)
}

// StepCtx assimilates the next observation: lines 1–4 of Algorithm 2 on
// the first call, lines 6–11 afterwards. It returns the normalized
// weighted particle set after the weight update (before resampling), so
// callers can form estimates with the proper weights. Particle
// propagation and weighting fan out over the parallel runtime;
// cancellation of ctx aborts between particles with ctx.Err().
func (f *Filter[S, Y]) StepCtx(ctx context.Context, y Y) ([]Weighted[S], error) {
	lw := make([]float64, f.n)
	next := make([]Weighted[S], f.n)
	opts := parallel.Options{Workers: f.Workers}
	var err error
	if f.step == 0 {
		f.cumLogW = make([]float64, f.n)
		err = parallel.ForStreams(ctx, f.r, f.n, opts, func(i int, r *rng.Stream) error {
			x := f.model.SampleInit(y, r)
			lw[i] = f.model.LogWeightInit(x, y)
			next[i] = Weighted[S]{X: x}
			return nil
		})
	} else {
		err = parallel.ForStreams(ctx, f.r, f.n, opts, func(i int, r *rng.Stream) error {
			prev := f.particles[i].X
			x := f.model.SampleProposal(prev, y, r)
			lw[i] = f.model.LogWeight(x, prev, y)
			next[i] = Weighted[S]{X: x}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	// SIS recursion: wₙ = wₙ₋₁·αₙ. With resampling enabled the prior
	// weights are uniform (reset below), so this reduces to αₙ alone.
	for i := range lw {
		f.cumLogW[i] += lw[i]
	}
	w, _, err := normalizeLogWeights(f.cumLogW)
	if err != nil {
		return nil, fmt.Errorf("step %d: %w", f.step+1, err)
	}
	for i := range next {
		next[i].W = w[i]
	}
	ess := ESS(next)
	f.ESSTrace = append(f.ESSTrace, ess)
	weighted := make([]Weighted[S], f.n)
	copy(weighted, next)
	switch {
	case f.DisableResampling:
		f.particles = next
	case f.ResampleThreshold > 0 && ess >= f.ResampleThreshold*float64(f.n):
		// Adaptive SIR: weights still healthy, keep them and skip the
		// resampling noise this step.
		f.particles = next
	default:
		f.particles = Resample(next, f.r)
		f.Resamples++
		for i := range f.cumLogW {
			f.cumLogW[i] = 0
		}
	}
	f.step++
	return weighted, nil
}

// Particles returns the current (post-resampling) particle set.
func (f *Filter[S, Y]) Particles() ([]Weighted[S], error) {
	if f.particles == nil {
		return nil, ErrNoparticles
	}
	out := make([]Weighted[S], len(f.particles))
	copy(out, f.particles)
	return out, nil
}
