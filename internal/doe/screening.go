package doe

import (
	"fmt"
	"sort"

	"modeldata/internal/rng"
)

// This file implements sequential bifurcation (§4.3): under a linear
// metamodel with Gaussian observation noise and non-negative main
// effects, important factors can be identified by *group* tests — run
// the simulation with a whole group of factors at their high levels and
// the rest low, compare against the all-low response, and recurse only
// into groups that show an effect. Group testing is far cheaper than
// testing each factor individually.

// Simulator evaluates the model at a ±1 factor-level vector.
type Simulator func(levels []int, r *rng.Stream) float64

// SBOptions tune sequential bifurcation.
type SBOptions struct {
	// Replications per probe point (averaged to fight noise). Default 3.
	Replications int
	// Threshold is the minimum group effect considered important; a
	// group whose estimated effect falls below it is discarded whole.
	Threshold float64
	// Seed drives the simulation randomness.
	Seed uint64
}

func (o SBOptions) withDefaults() SBOptions {
	if o.Replications <= 0 {
		o.Replications = 3
	}
	return o
}

// SBResult reports a sequential bifurcation run.
type SBResult struct {
	Important []int
	// Runs is the number of simulator invocations spent (the quantity
	// compared against one-factor-at-a-time screening in E12).
	Runs int
}

// SequentialBifurcation screens n factors with the given simulator.
// The probe at "group prefix high" follows Bettonvil & Kleijnen's
// formulation: factors 1…k high, the rest low; the effect of group
// (a, b] is y(b) − y(a), which under the linear model equals the sum of
// the group's main effects.
func SequentialBifurcation(n int, sim Simulator, opts SBOptions) (SBResult, error) {
	if n < 1 {
		return SBResult{}, fmt.Errorf("%w: %d", ErrBadFactors, n)
	}
	if sim == nil {
		return SBResult{}, fmt.Errorf("%w: nil simulator", ErrBadDesign)
	}
	opts = opts.withDefaults()
	stream := rng.New(opts.Seed)
	var result SBResult

	// probe(k) = averaged response with factors [0, k) high, rest low;
	// memoized because the recursion reuses boundary probes.
	cache := make(map[int]float64)
	probe := func(k int) float64 {
		if v, ok := cache[k]; ok {
			return v
		}
		levels := make([]int, n)
		for j := 0; j < n; j++ {
			if j < k {
				levels[j] = 1
			} else {
				levels[j] = -1
			}
		}
		sum := 0.0
		for rep := 0; rep < opts.Replications; rep++ {
			sum += sim(levels, stream.Split())
			result.Runs++
		}
		v := sum / float64(opts.Replications)
		cache[k] = v
		return v
	}

	var recurse func(lo, hi int)
	recurse = func(lo, hi int) {
		effect := probe(hi) - probe(lo)
		if effect <= opts.Threshold {
			return // group shows no effect: discard whole
		}
		if hi-lo == 1 {
			result.Important = append(result.Important, lo)
			return
		}
		mid := (lo + hi) / 2
		recurse(lo, mid)
		recurse(mid, hi)
	}
	recurse(0, n)
	sort.Ints(result.Important)
	return result, nil
}

// OneFactorAtATime is the naive screening baseline: each factor is
// probed individually against the all-low base point.
func OneFactorAtATime(n int, sim Simulator, opts SBOptions) (SBResult, error) {
	if n < 1 {
		return SBResult{}, fmt.Errorf("%w: %d", ErrBadFactors, n)
	}
	if sim == nil {
		return SBResult{}, fmt.Errorf("%w: nil simulator", ErrBadDesign)
	}
	opts = opts.withDefaults()
	stream := rng.New(opts.Seed)
	var result SBResult
	base := make([]int, n)
	for j := range base {
		base[j] = -1
	}
	probeAt := func(levels []int) float64 {
		sum := 0.0
		for rep := 0; rep < opts.Replications; rep++ {
			sum += sim(levels, stream.Split())
			result.Runs++
		}
		return sum / float64(opts.Replications)
	}
	y0 := probeAt(base)
	for j := 0; j < n; j++ {
		levels := append([]int(nil), base...)
		levels[j] = 1
		if probeAt(levels)-y0 > opts.Threshold {
			result.Important = append(result.Important, j)
		}
	}
	return result, nil
}

// LinearScreeningModel builds a Simulator for a linear metamodel with
// the given main effects (on the ±1 scale) and Gaussian noise — the
// §4.3 setting in which sequential bifurcation is provably efficient.
func LinearScreeningModel(mainEffects []float64, noise float64) Simulator {
	return func(levels []int, r *rng.Stream) float64 {
		y := 0.0
		for j, b := range mainEffects {
			y += b * float64(levels[j])
		}
		if noise > 0 {
			y += r.Normal(0, noise)
		}
		return y
	}
}
