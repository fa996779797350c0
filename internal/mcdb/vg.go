package mcdb

import (
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
)

// This file holds the VG function shipped with the MCDB layer: the
// normal generator of the paper's SBP_DATA example (§2.1). Scenarios
// write their own VG functions next to the specs that use them.

// NormalVG returns a VG function of width 1 drawing from
// Normal(params[0], params[1]) — MCDB's Normal VG function used by the
// SBP_DATA example. The parameter row must carry (mean, std), numeric,
// with std ≥ 0.
func NormalVG() VG {
	return VG{Width: 1, Draw: func(params engine.Row, r *rng.Stream, out [][]float64) error {
		if len(params) < 2 || !params[0].IsNumeric() || !params[1].IsNumeric() {
			return fmt.Errorf("%w: Normal VG needs numeric (mean, std), got %v", ErrBadSpec, params)
		}
		mean, std := params[0].AsFloat(), params[1].AsFloat()
		if std < 0 {
			return fmt.Errorf("%w: Normal VG needs std ≥ 0, got %v", ErrBadSpec, std)
		}
		xs := out[0]
		for j := range xs {
			xs[j] = mean + std*r.StdNormal()
		}
		return nil
	}}
}
