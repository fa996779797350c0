// Package simsql implements the SimSQL extension of MCDB described in
// §2.1 of the paper (Cai et al., SIGMOD 2013): stochastic database
// tables may be parametrized by the contents of other stochastic
// tables, definitions may be recursive across versions, and the system
// therefore generates realizations of a database-valued Markov chain
// D[0], D[1], D[2], … — the stochastic mechanism generating D[i] may
// depend explicitly on D[i−1].
//
// The package also provides the agent-based-simulation step of Wang et
// al. (abs.go), which SimSQL-style systems express as a self-join over
// the agent table.
package simsql

import (
	"context"
	"errors"
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// Common errors.
var (
	ErrNoDefs = errors.New("simsql: chain has no table definitions")
)

// TableDef defines one stochastic table of the chain. Generate produces
// version i of the table. The state database passed in contains:
//
//   - every static base table,
//   - version i−1 of every chain table under its plain name suffixed
//     "_prev" (for i = 0 the _prev tables are absent), and
//   - version i of every chain table defined earlier in the definition
//     order, under its plain name.
//
// This realizes SimSQL's recursive/versioned semantics: table A's
// generation may read B's current version and its own previous version.
type TableDef struct {
	Name     string
	Generate func(state *engine.Database, r *rng.Stream) (*engine.Table, error)
}

// Chain is a database-valued Markov chain specification.
type Chain struct {
	// Base holds the static (non-random) tables available at every
	// step. May be nil.
	Base *engine.Database
	// Defs are generated in order at every step.
	Defs []TableDef
}

// PrevName is the name under which a chain table's previous version is
// visible to Generate functions.
func PrevName(name string) string { return name + "_prev" }

// RunCtx generates a realization D[0..steps] of the chain (steps+1
// states) and returns it. Each returned database contains the chain
// tables under their plain names plus the static base tables. ctx is
// checked between chain steps, so a long realization aborts promptly
// with ctx.Err() once the caller gives up.
func (c *Chain) RunCtx(ctx context.Context, steps int, seed uint64) (*Realization, error) {
	if len(c.Defs) == 0 {
		return nil, ErrNoDefs
	}
	if steps < 0 {
		return nil, fmt.Errorf("simsql: steps=%d", steps)
	}
	ctx, span := obs.Start(ctx, "simsql.chain")
	span.SetInt("steps", int64(steps))
	defer span.End()
	r := rng.New(seed)
	base := c.Base
	if base == nil {
		base = engine.NewDatabase()
	}
	realz := &Realization{}
	var prev *engine.Database
	for i := 0; i <= steps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		state := base.Clone()
		if prev != nil {
			for _, def := range c.Defs {
				pt, err := prev.Get(def.Name)
				if err != nil {
					return nil, fmt.Errorf("simsql: version %d: %w", i, err)
				}
				pc := pt.Clone()
				pc.Name = PrevName(def.Name)
				state.Put(pc)
			}
		}
		for _, def := range c.Defs {
			t, err := def.Generate(state, r.Split())
			if err != nil {
				return nil, fmt.Errorf("simsql: version %d table %q: %w", i, def.Name, err)
			}
			t.Name = def.Name
			state.Put(t)
		}
		// Snapshot: drop the _prev views from the published state.
		snap := state.Clone()
		for _, def := range c.Defs {
			snap.Drop(PrevName(def.Name))
		}
		realz.Versions = append(realz.Versions, snap)
		prev = snap
	}
	return realz, nil
}

// Realization is one sampled trajectory of the database-valued Markov
// chain: Versions[i] is D[i].
type Realization struct {
	Versions []*engine.Database
}

// Trace evaluates a scalar query against every version and returns the
// resulting time series of query results — how SimSQL analyses are
// typically consumed (e.g. expected inventory per epoch).
func (r *Realization) Trace(q func(db *engine.Database) (float64, error)) ([]float64, error) {
	out := make([]float64, len(r.Versions))
	for i, db := range r.Versions {
		v, err := q(db)
		if err != nil {
			return nil, fmt.Errorf("simsql: trace at version %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// MonteCarloCtx samples nChains independent realizations and returns
// the per-version mean of the scalar query across chains — estimating
// E[f(D[i])] for each i. Chain replicates fan out over the parallel
// runtime: each replicate's seed is drawn from the parent stream in
// replicate order before any worker starts, and per-version traces are
// reduced in replicate order after the loop, so results are
// bit-identical at any worker count. Generate and query hooks must be
// safe for concurrent calls on distinct realizations.
func (c *Chain) MonteCarloCtx(ctx context.Context, steps, nChains int, seed uint64, workers int, q func(db *engine.Database) (float64, error)) ([]float64, error) {
	if nChains <= 0 {
		return nil, fmt.Errorf("simsql: nChains=%d", nChains)
	}
	ctx, span := obs.Start(ctx, "simsql.montecarlo")
	span.SetInt("steps", int64(steps))
	span.SetInt("chains", int64(nChains))
	defer span.End()
	parent := rng.New(seed)
	seeds := make([]uint64, nChains)
	for n := range seeds {
		seeds[n] = parent.Uint64()
	}
	traces := make([][]float64, nChains)
	err := parallel.For(ctx, nChains, parallel.Options{Workers: workers}, func(n int) error {
		realz, err := c.RunCtx(ctx, steps, seeds[n])
		if err != nil {
			return err
		}
		traces[n], err = realz.Trace(q)
		return err
	})
	if err != nil {
		return nil, err
	}
	sums := make([]float64, steps+1)
	for _, trace := range traces {
		for i, v := range trace {
			sums[i] += v
		}
	}
	for i := range sums {
		sums[i] /= float64(nChains)
	}
	return sums, nil
}
