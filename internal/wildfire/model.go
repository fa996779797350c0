package wildfire

import (
	"math"

	"modeldata/internal/assimilate"
	"modeldata/internal/rng"
)

// This file plugs the fire simulator into the particle filter: the
// prior (bootstrap) proposal of [56] and the sensor-aware proposal of
// [57].

// PriorModel builds the original Xue et al. formulation: the proposal
// is the state transition p(xₙ | xₙ₋₁) — simply setting the simulation
// state to x̄ₙ₋₁ and simulating for Δt — so the weights reduce to the
// Gaussian observation likelihood.
func PriorModel(p Params, sm Sensors, init func(r *rng.Stream) *State) assimilate.Model[*State, []float64] {
	return assimilate.BootstrapModel[*State, []float64](
		init,
		func(prev *State, r *rng.Stream) *State {
			next, err := StepFire(prev, p, r)
			if err != nil {
				// Params are validated at filter construction; a
				// failure here is programmer error.
				panic(err)
			}
			return next
		},
		func(x *State, y []float64) float64 { return sm.LogLik(x, y) },
	)
}

// SensorAwareConfig tunes the [57] proposal.
type SensorAwareConfig struct {
	// HotThreshold: an unburned cell whose sensor reads above this is a
	// candidate for random ignition in the adjusted state x′.
	HotThreshold float64
	// CoolThreshold: a burning cell whose sensor reads below this is a
	// candidate for extinction in x′.
	CoolThreshold float64
	// AdjustProb is the per-candidate-cell probability of applying the
	// adjustment when building x′.
	AdjustProb float64
	// ModelConfidence is the probability of returning the pure
	// simulation state x rather than the sensor-adjusted x′ — the
	// "relative confidence in the sensors and in the simulation model".
	ModelConfidence float64
	// M is the number of extra samples drawn to KDE-estimate the
	// transition and proposal densities needed for the weights.
	M int
}

// withDefaults fills zero fields: an exactly zero value is the unset
// sentinel for a config default.
func (c SensorAwareConfig) withDefaults(sm Sensors) SensorAwareConfig {
	if c.HotThreshold == 0 {
		c.HotThreshold = sm.Ambient + 3*sm.Noise
	}
	if c.CoolThreshold == 0 {
		c.CoolThreshold = sm.Ambient + sm.Noise
	}
	if c.AdjustProb == 0 {
		c.AdjustProb = 0.5
	}
	if c.ModelConfidence == 0 {
		c.ModelConfidence = 0.5
	}
	if c.M == 0 {
		c.M = 20
	}
	return c
}

// adjustBySensors builds x′ from x per [57]: randomly ignite unburned
// cells with sufficiently hot sensors and turn off the fire in burning
// cells with sufficiently cool sensors.
func adjustBySensors(x *State, y []float64, p Params, sm Sensors, cfg SensorAwareConfig, r *rng.Stream) *State {
	out := x.Clone()
	for cy := 0; cy < x.H; cy++ {
		for cx := 0; cx < x.W; cx++ {
			i := out.idx(cx, cy)
			b := sm.SensorBlockOf(x, cx, cy)
			if b >= len(y) {
				continue
			}
			switch out.Cells[i] {
			case Unburned:
				if y[b] > cfg.HotThreshold && r.Float64() < cfg.AdjustProb {
					out.Cells[i] = Burning
					out.Intensity[i] = math.Max(0.1, r.Normal(p.IntensityMean, p.IntensityStd))
				}
			case Burning:
				if y[b] < cfg.CoolThreshold && r.Float64() < cfg.AdjustProb {
					out.Cells[i] = Burned
					out.Intensity[i] = 0
				}
			}
		}
	}
	return out
}

// SensorAwareModel builds the improved proposal of [57]: each particle
// first simulates x from p(xₙ | xₙ₋₁); an adjusted state x′ is derived
// from the sensor readings; one of x, x′ is returned according to the
// model-confidence mixture. The densities p(xₙ | xₙ₋₁) and
// q(xₙ | yₙ, xₙ₋₁) required for the weights have no closed form, so —
// exactly as in the paper — M additional samples are drawn from each
// and the densities are estimated with a kernel density estimator over
// a summary statistic (here the burning-cell count).
func SensorAwareModel(p Params, sm Sensors, init func(r *rng.Stream) *State, cfg SensorAwareConfig) assimilate.Model[*State, []float64] {
	cfg = cfg.withDefaults(sm)
	sampleProposalOnce := func(prev *State, y []float64, r *rng.Stream) *State {
		x, err := StepFire(prev, p, r)
		if err != nil {
			panic(err)
		}
		if r.Float64() < cfg.ModelConfidence {
			return x
		}
		return adjustBySensors(x, y, p, sm, cfg, r)
	}
	return assimilate.Model[*State, []float64]{
		SampleInit:    func(y []float64, r *rng.Stream) *State { return init(r) },
		LogWeightInit: func(x *State, y []float64) float64 { return sm.LogLik(x, y) },
		SampleProposal: func(prev *State, y []float64, r *rng.Stream) *State {
			return sampleProposalOnce(prev, y, r)
		},
		LogWeight: func(x, prev *State, y []float64) float64 {
			// log αₙ = log p(y|x) + log p̂(x|prev) − log q̂(x|y,prev),
			// with both densities KDE-estimated from M fresh samples.
			r := rng.New(uint64(x.Step)*2654435761 + uint64(x.BurningCount()) + 1)
			pKDE, errP := kdeOverSummary(cfg.M, func() *State {
				s, err := StepFire(prev, p, r)
				if err != nil {
					panic(err)
				}
				return s
			})
			qKDE, errQ := kdeOverSummary(cfg.M, func() *State {
				return sampleProposalOnce(prev, y, r)
			})
			ll := sm.LogLik(x, y)
			if errP != nil || errQ != nil {
				return ll
			}
			summary := float64(x.BurningCount())
			logP := pKDE.LogDensity(summary)
			logQ := qKDE.LogDensity(summary)
			if math.IsInf(logP, -1) || math.IsInf(logQ, -1) {
				// Outside both KDE supports: fall back to the
				// likelihood-only weight rather than killing the
				// particle on estimator support error.
				return ll
			}
			return ll + logP - logQ
		},
	}
}
