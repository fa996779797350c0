package doe

import (
	"context"
	"fmt"

	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// EvalOptions tune EvaluateDesign.
type EvalOptions struct {
	// Replications per design point (averaged to fight noise).
	// Default 1.
	Replications int
	// Seed drives the simulation randomness.
	Seed uint64
	// Workers bounds design-point parallelism; zero uses the context
	// default.
	Workers int
}

// EvaluateDesign runs the simulator once (or Replications times,
// averaged) at every run of a two-level design and returns the
// per-run responses — the y vector MainEffects and metamodel fitting
// consume. Design points fan out over the parallel runtime with one
// substream per run, split in run order, so responses are bit-identical
// at any worker count. The simulator must be safe for concurrent calls
// with distinct streams. Cancellation of ctx aborts between runs.
func EvaluateDesign(ctx context.Context, d *Design, sim Simulator, opts EvalOptions) ([]float64, error) {
	if d == nil || d.NumRuns() == 0 {
		return nil, fmt.Errorf("%w: empty design", ErrBadDesign)
	}
	if sim == nil {
		return nil, fmt.Errorf("%w: nil simulator", ErrBadDesign)
	}
	reps := opts.Replications
	if reps <= 0 {
		reps = 1
	}
	out := make([]float64, d.NumRuns())
	err := parallel.ForStreams(ctx, rng.New(opts.Seed), d.NumRuns(), parallel.Options{Workers: opts.Workers},
		func(i int, r *rng.Stream) error {
			sum := 0.0
			for rep := 0; rep < reps; rep++ {
				sum += sim(d.Runs[i], r.Split())
			}
			out[i] = sum / float64(reps)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
