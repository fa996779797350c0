// Package sgd implements stochastic gradient descent for the
// least-squares problem min_x L(x) = ‖Ax − b‖² with tridiagonal A, and
// the distributed stratified variant (DSGD) described in §2.2 of the
// paper: rows are partitioned into the three strata {1, 4, 7, …},
// {2, 5, 8, …}, {3, 6, 9, …}; within a stratum the tridiagonal
// structure makes row updates touch disjoint entries of x, so they can
// run in parallel; the algorithm switches strata according to a
// regenerative schedule that spends equal time in each stratum.
//
// The package accounts for the data that a MapReduce realization of
// each algorithm would shuffle, which is the paper's argument for DSGD:
// "the amount of data that needs to be shuffled is negligible".
package sgd

import (
	"context"
	"errors"
	"fmt"
	"math"

	"modeldata/internal/linalg"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// ErrDiverged is returned when the iterate becomes non-finite.
var ErrDiverged = errors.New("sgd: iterate diverged")

// TridiagonalSolver is any routine that approximately solves the
// tridiagonal least-squares system; timeseries.NewSplineSGD accepts one.
type TridiagonalSolver func(tri *linalg.Tridiagonal, b []float64) ([]float64, error)

// Options configure the solvers.
type Options struct {
	// Epochs is the number of passes over the rows. Default 50.
	Epochs int
	// Step0 scales the step size; with Kaczmarz=false the step at
	// update n is Step0·(n₀+n)^(−Alpha). Default 0.5.
	Step0 float64
	// Alpha is the step-size decay exponent of the schedule
	// εₙ = n^(−α) from the paper. Default 0.75.
	Alpha float64
	// Kaczmarz selects the exact-projection step (randomized Kaczmarz),
	// an SGD variant with per-row optimal step size; it converges
	// linearly on consistent systems and is the default for the spline
	// experiments.
	Kaczmarz bool
	// Workers bounds within-stratum parallelism for DSGD. Default 4.
	Workers int
	// Seed seeds row sampling and the regenerative stratum schedule.
	Seed uint64
	// Tol, if positive, stops early once the full residual ‖Ax−b‖
	// drops below it (checked once per epoch).
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.Epochs <= 0 {
		o.Epochs = 50
	}
	if o.Step0 <= 0 {
		o.Step0 = 0.5
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.75
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// Stats describes a solver run.
type Stats struct {
	Updates      int     // row updates applied
	Epochs       int     // epochs completed
	Residual     float64 // final ‖Ax − b‖
	ShuffleBytes int64   // estimated MapReduce shuffle volume
	StratumSwaps int     // DSGD only: number of stratum switches
}

func (s Stats) String() string {
	return fmt.Sprintf("updates=%d epochs=%d residual=%.3g shuffle=%dB swaps=%d",
		s.Updates, s.Epochs, s.Residual, s.ShuffleBytes, s.StratumSwaps)
}

// rowResidual computes A_i·x − b_i for a tridiagonal A.
func rowResidual(tri *linalg.Tridiagonal, b, x []float64, i int) float64 {
	n := len(x)
	r := tri.Diag[i]*x[i] - b[i]
	if i > 0 {
		r += tri.Sub[i-1] * x[i-1]
	}
	if i < n-1 {
		r += tri.Super[i] * x[i+1]
	}
	return r
}

// rowNormSq returns ‖A_i‖² for a tridiagonal A.
func rowNormSq(tri *linalg.Tridiagonal, i int) float64 {
	n := len(tri.Diag)
	s := tri.Diag[i] * tri.Diag[i]
	if i > 0 {
		s += tri.Sub[i-1] * tri.Sub[i-1]
	}
	if i < n-1 {
		s += tri.Super[i] * tri.Super[i]
	}
	return s
}

// applyRowUpdate performs one SGD step on row i, scaling the gradient
// −2(A_i·x−b_i)·A_iᵀ by step (plain SGD) or projecting exactly
// (Kaczmarz). Only x[i−1], x[i], x[i+1] change.
func applyRowUpdate(tri *linalg.Tridiagonal, b, x []float64, i int, step float64, kaczmarz bool) {
	res := rowResidual(tri, b, x, i)
	var scale float64
	if kaczmarz {
		ns := rowNormSq(tri, i)
		if ns == 0 { // an exactly zero row norm means an all-zero row; skip before dividing
			return
		}
		scale = -res / ns
	} else {
		scale = -step * 2 * res
	}
	n := len(x)
	x[i] += scale * tri.Diag[i]
	if i > 0 {
		x[i-1] += scale * tri.Sub[i-1]
	}
	if i < n-1 {
		x[i+1] += scale * tri.Super[i]
	}
}

func residualNorm(tri *linalg.Tridiagonal, b, x []float64) (float64, error) {
	ax, err := tri.MulVec(x)
	if err != nil {
		return 0, err
	}
	return linalg.Norm2(linalg.Sub(ax, b)), nil
}

func checkFinite(x []float64) error {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrDiverged
		}
	}
	return nil
}

// Solve runs sequential SGD on min ‖Ax − b‖², sampling rows uniformly
// at random, exactly the "ordinary stochastic gradient descent" of
// §2.2. A MapReduce realization of unstratified SGD must reshuffle the
// full iterate every synchronization (once per epoch here), so
// ShuffleBytes grows with epochs·n — the cost DSGD avoids.
func Solve(tri *linalg.Tridiagonal, b []float64, opts Options) ([]float64, Stats, error) {
	opts = opts.withDefaults()
	var stats Stats
	if err := tri.Validate(); err != nil {
		return nil, stats, err
	}
	n := tri.N()
	if len(b) != n {
		return nil, stats, fmt.Errorf("%w: rhs has %d entries for n=%d", linalg.ErrShape, len(b), n)
	}
	r := rng.New(opts.Seed)
	x := make([]float64, n)
	updates := 0
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for k := 0; k < n; k++ {
			i := r.Intn(n)
			step := opts.Step0 * math.Pow(float64(updates+2), -opts.Alpha)
			applyRowUpdate(tri, b, x, i, step, opts.Kaczmarz)
			updates++
		}
		stats.Epochs++
		// Full-iterate shuffle per epoch in the MapReduce realization.
		stats.ShuffleBytes += int64(8 * n)
		if err := checkFinite(x); err != nil {
			return nil, stats, err
		}
		if opts.Tol > 0 {
			res, err := residualNorm(tri, b, x)
			if err != nil {
				return nil, stats, err
			}
			if res < opts.Tol {
				break
			}
		}
	}
	stats.Updates = updates
	res, err := residualNorm(tri, b, x)
	if err != nil {
		return nil, stats, err
	}
	stats.Residual = res
	return x, stats, nil
}

// SolveDistributed runs DSGD with no cancellation. See
// SolveDistributedCtx.
func SolveDistributed(tri *linalg.Tridiagonal, b []float64, opts Options) ([]float64, Stats, error) {
	return SolveDistributedCtx(context.Background(), tri, b, opts)
}

// SolveDistributedCtx runs DSGD. Rows are stratified by index mod 3;
// rows within a stratum touch pairwise-disjoint slices of x (row i
// updates x[i−1..i+1], and stratum members are 3 apart), so each
// stratum's rows are partitioned among Workers and the partitions run
// as parallel tasks on the internal/parallel runtime (which credits
// iteration counters to any stats collector carried by ctx). Strata are
// visited in regenerative cycles: each cycle is a fresh uniform
// permutation of the three strata, giving equal long-run time per
// stratum, the condition under which [21] proves convergence.
// Cancellation of ctx is honored between stratum passes.
//
// Partition tasks mutate x in place and are therefore NOT re-runnable:
// they opt out of the runtime's retry machinery (parallel.Options.
// NoFaults), exactly as a real DSGD epoch must restart from the last
// iterate snapshot rather than re-run a half-applied sub-epoch.
//
// Shuffle accounting: on each stratum switch, only the boundary entries
// between worker partitions move (2 values per worker), matching the
// paper's "negligible" claim.
func SolveDistributedCtx(ctx context.Context, tri *linalg.Tridiagonal, b []float64, opts Options) ([]float64, Stats, error) {
	opts = opts.withDefaults()
	var stats Stats
	if err := tri.Validate(); err != nil {
		return nil, stats, err
	}
	n := tri.N()
	if len(b) != n {
		return nil, stats, fmt.Errorf("%w: rhs has %d entries for n=%d", linalg.ErrShape, len(b), n)
	}
	r := rng.New(opts.Seed)
	x := make([]float64, n)

	// Precompute strata row lists.
	strata := make([][]int, 3)
	for i := 0; i < n; i++ {
		strata[i%3] = append(strata[i%3], i)
	}

	var updates int
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		// One regenerative cycle: all three strata in random order.
		order := r.Perm(3)
		for _, s := range order {
			rows := strata[s]
			if len(rows) == 0 {
				continue
			}
			stats.StratumSwaps++
			stats.ShuffleBytes += int64(8 * 2 * opts.Workers)
			// Partition the stratum's rows among workers; disjoint x
			// regions mean no synchronization is needed inside. Seeds
			// are drawn in partition order before the fan-out so the
			// result is identical at any scheduling.
			nw := opts.Workers
			if nw > len(rows) {
				nw = len(rows)
			}
			chunk := (len(rows) + nw - 1) / nw
			base := updates // step-size clock, fixed for this stratum pass
			type part struct {
				rows []int
				seed uint64
			}
			parts := make([]part, 0, nw)
			for w := 0; w < nw; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > len(rows) {
					hi = len(rows)
				}
				if lo >= hi {
					continue
				}
				parts = append(parts, part{rows: rows[lo:hi], seed: r.Uint64()})
			}
			err := parallel.For(ctx, len(parts), parallel.Options{Workers: len(parts), NoFaults: true}, func(w int) error {
				wr := rng.New(parts[w].seed)
				pr := parts[w].rows
				for k := 0; k < len(pr); k++ {
					i := pr[wr.Intn(len(pr))]
					step := opts.Step0 * math.Pow(float64(base+k+2), -opts.Alpha)
					applyRowUpdate(tri, b, x, i, step, opts.Kaczmarz)
				}
				return nil
			})
			if err != nil {
				return nil, stats, err
			}
			updates += len(rows)
		}
		stats.Epochs++
		if err := checkFinite(x); err != nil {
			return nil, stats, err
		}
		if opts.Tol > 0 {
			res, err := residualNorm(tri, b, x)
			if err != nil {
				return nil, stats, err
			}
			if res < opts.Tol {
				break
			}
		}
	}
	stats.Updates = updates
	res, err := residualNorm(tri, b, x)
	if err != nil {
		return nil, stats, err
	}
	stats.Residual = res
	return x, stats, nil
}

// Solver adapts Solve to the TridiagonalSolver interface.
func Solver(opts Options) TridiagonalSolver {
	return func(tri *linalg.Tridiagonal, b []float64) ([]float64, error) {
		x, _, err := Solve(tri, b, opts)
		return x, err
	}
}

// DistributedSolver adapts SolveDistributed to the TridiagonalSolver
// interface.
func DistributedSolver(opts Options) TridiagonalSolver {
	return func(tri *linalg.Tridiagonal, b []float64) ([]float64, error) {
		x, _, err := SolveDistributed(tri, b, opts)
		return x, err
	}
}
