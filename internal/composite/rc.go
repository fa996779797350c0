package composite

import (
	"errors"
	"fmt"
	"math"

	"modeldata/internal/rng"
	"modeldata/internal/stats"
)

// This file implements the result-caching (RC) technique of §2.3 of the
// paper ([25]) for two stochastic models in series: M1 produces a
// random output Y1 that feeds M2, which produces the real-valued output
// Y2 whose expectation θ = E[Y2] is being estimated. For n replications
// of M2, only m_n = ⌈αn⌉ replications of M1 execute; their cached
// outputs are cycled through in a fixed order (a stratified reuse that
// keeps estimator variance down). The asymptotic variance of the
// budget-c estimator is g(α), and efficiency 1/g(α) is maximized at α*.

// ErrBadAlpha is returned for a replication fraction outside (0, 1].
var ErrBadAlpha = errors.New("composite: replication fraction must be in (0, 1]")

// TwoStage is a composite model M = M2 ∘ M1 with both components
// stochastic. C1 and C2 are the expected per-run costs c₁ and c₂ in
// arbitrary work units (the cost of transforming and storing M1's
// output is folded into C1, as in the paper).
type TwoStage struct {
	M1 func(r *rng.Stream) float64
	M2 func(y1 float64, r *rng.Stream) float64
	C1 float64
	C2 float64
}

// RCRun reports one result-caching execution.
type RCRun struct {
	Theta  float64 // θ̂ = mean of the n outputs of M2
	M1Runs int     // m_n
	M2Runs int     // n
}

// RunRC executes the RC strategy: m_n = ⌈αn⌉ runs of M1 are cached and
// cycled through in fixed order as inputs to n runs of M2.
func (ts TwoStage) RunRC(n int, alpha float64, seed uint64) (RCRun, error) {
	if n <= 0 {
		return RCRun{}, fmt.Errorf("composite: RC n=%d", n)
	}
	if alpha <= 0 || alpha > 1 {
		return RCRun{}, fmt.Errorf("%w: α=%g", ErrBadAlpha, alpha)
	}
	r := rng.New(seed)
	mn := int(math.Ceil(alpha * float64(n)))
	if mn > n {
		mn = n
	}
	cache := make([]float64, mn)
	for i := range cache {
		cache[i] = ts.M1(r.Split())
	}
	samples := make([]float64, n)
	for i := 0; i < n; i++ {
		samples[i] = ts.M2(cache[i%mn], r.Split())
	}
	return RCRun{
		Theta:  stats.Mean(samples),
		M1Runs: mn,
		M2Runs: n,
	}, nil
}

// RunBudgeted executes RC under a computing budget c: the number of M2
// outputs is N(c) = sup{n ≥ 0 : C_n ≤ c} where C_n = ⌈αn⌉·c₁ + n·c₂,
// and the returned estimate is U(c) = θ̂_{N(c)}.
func (ts TwoStage) RunBudgeted(budget, alpha float64, seed uint64) (RCRun, error) {
	if alpha <= 0 || alpha > 1 {
		return RCRun{}, fmt.Errorf("%w: α=%g", ErrBadAlpha, alpha)
	}
	n := maxNForBudget(budget, alpha, ts.C1, ts.C2)
	if n <= 0 {
		return RCRun{}, fmt.Errorf("composite: budget %g cannot afford one replication", budget)
	}
	return ts.RunRC(n, alpha, seed)
}

// maxNForBudget computes N(c) by direct search on the (monotone) cost.
func maxNForBudget(budget, alpha, c1, c2 float64) int {
	costAt := func(n int) float64 {
		return math.Ceil(alpha*float64(n))*c1 + float64(n)*c2
	}
	// Exponential then binary search.
	if costAt(1) > budget {
		return 0
	}
	hi := 1
	for costAt(hi) <= budget {
		hi *= 2
	}
	lo := hi / 2
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if costAt(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Statistics are the §2.3 quantities 𝒮 = (c₁, c₂, V₁, V₂): expected
// costs of one M1 and one M2 run, the variance of an M2 output, and the
// covariance of two M2 outputs sharing one M1 input.
type Statistics struct {
	C1, C2, V1, V2 float64
}

func (s Statistics) String() string {
	return fmt.Sprintf("c1=%.4g c2=%.4g V1=%.4g V2=%.4g", s.C1, s.C2, s.V1, s.V2)
}

// GAlpha evaluates the paper's asymptotic variance
//
//	g(α) = (αc₁ + c₂)·(V₁ + [2r_α − α·r_α(r_α+1)]·V₂),  r_α = ⌊1/α⌋.
func GAlpha(alpha float64, s Statistics) float64 {
	ra := math.Floor(1 / alpha)
	return (alpha*s.C1 + s.C2) * (s.V1 + (2*ra-alpha*ra*(ra+1))*s.V2)
}

// GTilde evaluates the smooth approximation
// g̃(α) = (αc₁ + c₂)(V₁ + (1/α − 1)V₂) obtained by replacing r_α with
// 1/α.
func GTilde(alpha float64, s Statistics) float64 {
	return (alpha*s.C1 + s.C2) * (s.V1 + (1/alpha-1)*s.V2)
}

// OptimalAlpha returns the efficiency-maximizing replication fraction
//
//	α* = sqrt((c₂/c₁) / (V₁/V₂ − 1)),
//
// truncated into [minAlpha, 1]. Degenerate cases follow §2.3: V₂ ≤ 0
// (M2 insensitive to M1 beyond noise) gives the minimum α (simulate M1
// as rarely as allowed); V₁ ≈ V₂ (M2 a deterministic transformer) gives
// α = 1.
func OptimalAlpha(s Statistics, minAlpha float64) float64 {
	if minAlpha <= 0 {
		minAlpha = 1e-6
	}
	if s.V2 <= 0 {
		return minAlpha
	}
	ratio := s.V1/s.V2 - 1
	if ratio <= 0 {
		return 1
	}
	a := math.Sqrt((s.C2 / s.C1) / ratio)
	if a < minAlpha {
		return minAlpha
	}
	if a > 1 {
		return 1
	}
	return a
}

// PilotEstimate estimates 𝒮 with k pilot replications: each draws one
// Y1 and two conditionally independent Y2's, giving V₂ as the sample
// covariance of the pairs and V₁ as the variance over all Y2's. Costs
// are taken from the TwoStage's declared work units (a composite
// platform would store measured costs in the model metadata and refine
// them across production runs).
func (ts TwoStage) PilotEstimate(k int, seed uint64) (Statistics, error) {
	if k < 2 {
		return Statistics{}, fmt.Errorf("composite: pilot needs k ≥ 2, got %d", k)
	}
	r := rng.New(seed)
	first := make([]float64, k)
	second := make([]float64, k)
	all := make([]float64, 0, 2*k)
	for i := 0; i < k; i++ {
		y1 := ts.M1(r.Split())
		a := ts.M2(y1, r.Split())
		b := ts.M2(y1, r.Split())
		first[i], second[i] = a, b
		all = append(all, a, b)
	}
	v2 := stats.Covariance(first, second)
	if v2 < 0 {
		v2 = 0 // the paper assumes V₂ ≥ 0, "as is usually the case"
	}
	return Statistics{
		C1: ts.C1,
		C2: ts.C2,
		V1: stats.Variance(all),
		V2: v2,
	}, nil
}
