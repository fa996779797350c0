package mcdb

import (
	"fmt"
	"math"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
)

// This file is the library of VG functions shipped with the MCDB layer,
// covering the examples in §2.1 of the paper: a simple normal
// generator, a backward random walk for imputing missing prior prices,
// a forward price path for option valuation, and a Bayesian customer
// demand generator.

// NormalVG returns a VG function drawing one value from
// Normal(params[0], params[1]) — MCDB's Normal VG function used by the
// SBP_DATA example. The parameter row must carry (mean, std).
func NormalVG() VG {
	return func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
		if len(params) < 2 {
			return nil, fmt.Errorf("%w: Normal VG needs (mean, std), got %d params", ErrBadSpec, len(params))
		}
		mean, std := params[0].AsFloat(), params[1].AsFloat()
		return append(out, engine.Float(r.Normal(mean, std))), nil
	}
}

// PoissonVG returns a VG function drawing one value from
// Poisson(params[0]).
func PoissonVG() VG {
	return func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
		if len(params) < 1 {
			return nil, fmt.Errorf("%w: Poisson VG needs (lambda)", ErrBadSpec)
		}
		return append(out, engine.Int(int64(r.Poisson(params[0].AsFloat())))), nil
	}
}

// DistVG adapts any rng.Dist into a single-value VG function with fixed
// parameters.
func DistVG(d rng.Dist) VG {
	return func(_ engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
		return append(out, engine.Float(d.Sample(r))), nil
	}
}

// BackwardWalkVG returns a VG function that executes a backward
// geometric random walk from a current price to estimate steps missing
// prior prices (the §2.1 example). Parameters: (currentPrice, drift,
// vol). It emits the estimated price `steps` ticks in the past.
func BackwardWalkVG(steps int) VG {
	return func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
		if len(params) < 3 {
			return nil, fmt.Errorf("%w: BackwardWalk VG needs (price, drift, vol)", ErrBadSpec)
		}
		price := params[0].AsFloat()
		drift := params[1].AsFloat()
		vol := params[2].AsFloat()
		for i := 0; i < steps; i++ {
			// Invert one forward log-step: divide out a sampled return.
			price /= 1 + drift + vol*r.StdNormal()
		}
		return append(out, engine.Float(price)), nil
	}
}

// OptionPayoffVG returns a VG function that simulates a forward
// geometric price path of `steps` ticks and reports the payoff of a
// European call struck at `strike` — the "value of a stock option one
// week from now" example. Parameters: (currentPrice, drift, vol).
func OptionPayoffVG(steps int, strike float64) VG {
	return func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
		if len(params) < 3 {
			return nil, fmt.Errorf("%w: OptionPayoff VG needs (price, drift, vol)", ErrBadSpec)
		}
		price := params[0].AsFloat()
		drift := params[1].AsFloat()
		vol := params[2].AsFloat()
		for i := 0; i < steps; i++ {
			price *= 1 + drift + vol*r.StdNormal()
		}
		payoff := price - strike
		if payoff < 0 {
			payoff = 0
		}
		return append(out, engine.Float(payoff)), nil
	}
}

// BayesianDemandVG returns a VG function for the customized customer
// demand example of §2.1: a global parametric demand model (gamma prior
// over a customer's mean demand rate) is updated with the customer's
// own purchase history via Bayes' theorem, and demand at the offered
// price is drawn from the posterior predictive.
//
// Parameters: (priorShape, priorRate, custPurchases, custPeriods,
// price). The demand rate λ has prior Gamma(shape, 1/rate); observing
// `custPurchases` purchases over `custPeriods` periods gives posterior
// Gamma(shape+purchases, 1/(rate+periods)). Demand at price p scales
// the posterior rate by the elasticity factor exp(−elasticity·p).
func BayesianDemandVG(elasticity float64) VG {
	return func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
		if len(params) < 5 {
			return nil, fmt.Errorf("%w: BayesianDemand VG needs 5 params", ErrBadSpec)
		}
		shape := params[0].AsFloat()
		rate := params[1].AsFloat()
		purchases := params[2].AsFloat()
		periods := params[3].AsFloat()
		price := params[4].AsFloat()
		postShape := shape + purchases
		postRate := rate + periods
		lambda := r.Gamma(postShape, 1/postRate)
		demand := r.Poisson(lambda * math.Exp(-elasticity*price))
		return append(out, engine.Int(int64(demand))), nil
	}
}
