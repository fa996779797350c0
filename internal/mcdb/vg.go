package mcdb

import (
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
)

// This file holds the VG function shipped with the MCDB layer: the
// normal generator of the paper's SBP_DATA example (§2.1). Scenarios
// write their own VG functions next to the specs that use them.

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
