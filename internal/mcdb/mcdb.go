// Package mcdb implements the Monte Carlo Database System of §2.1 of
// the paper (Jampani et al., TODS 2011): a relational database extended
// with "stochastic" tables whose contents are not stored values but
// probability distributions, realized on demand by VG (Variable
// Generation) functions. Running a query over one realization draws a
// sample from the query-result distribution; iterating yields samples
// from which moments, quantiles, extreme quantiles (MCDB-R), and
// threshold probabilities are estimated.
//
// A spec's declaration selects how its table is executed:
//
//   - Tuple bundles, when it declares UncertainCols: the plan runs
//     once, each uncertain cell carrying its instantiations across all
//     Monte Carlo iterations.
//   - Per instance, when it declares none (non-numeric stochastic
//     attributes cannot be bundled): a full database is instantiated
//     per iteration and the query re-run — the strawman MCDB is
//     designed to avoid, and how arbitrary SQL runs.
package mcdb

import (
	"context"
	"errors"
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// Common errors.
var (
	ErrNoSpec    = errors.New("mcdb: no such stochastic table spec")
	ErrBadSpec   = errors.New("mcdb: invalid stochastic table spec")
	ErrNoSamples = errors.New("mcdb: no Monte Carlo samples")
	// ErrBadQuery marks a query the caller got wrong — iterations,
	// window, aggregate or column — as opposed to a fault while running
	// a well-formed one.
	ErrBadQuery = errors.New("mcdb: invalid query")
)

// VG is a Variable Generation function: given the parameter row
// produced by the spec's parameter query, it appends one realization of
// the uncertain values for a single outer tuple to out and returns the
// extended slice, as append does. VG functions range from a draw from a
// normal distribution to a full backward random walk (see the library
// in vg.go).
//
// out is the caller's buffer. The bundle sampling loop hands the same
// one back emptied (buf[:0]) for every iteration of a tuple, so a VG
// must not keep out or the slice it returns past the call; a caller
// that keeps the realization (per-instance realizeTuple) passes nil and
// owns what comes back.
type VG func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error)

// TableSpec declares one stochastic table, mirroring MCDB's
// CREATE TABLE ... AS FOR EACH ... WITH ... syntax:
//
//	CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS
//	  FOR EACH p in PATIENTS
//	  WITH SBP AS Normal(SELECT s.MEAN, s.STD FROM SBP_PARAM s)
//	  SELECT p.PID, p.GENDER, b.VALUE FROM SBP b
type TableSpec struct {
	// Name and Schema of the realized stochastic table.
	Name   string
	Schema engine.Schema
	// ForEach names the deterministic table looped over (the FOR EACH
	// clause). If empty, the VG function is invoked exactly once with a
	// nil outer row.
	ForEach string
	// Params produces the VG parameter row for one outer tuple; in
	// MCDB this is an arbitrary SQL query over the non-random tables.
	// A nil Params passes the outer row itself to the VG function.
	Params func(db *engine.Database, outer engine.Row) (engine.Row, error)
	// VG generates one realization of the uncertain values.
	VG VG
	// OutputRow assembles a realized row from the outer tuple and the
	// VG output (the final SELECT). A nil OutputRow appends the VG
	// values to the outer row — the form the bundle sampling loop reads
	// without assembling a row per draw. A custom OutputRow is called
	// for every draw, so that route pays whatever row it allocates per
	// tuple-iteration. On bundles vgOut is a buffer the next draw
	// overwrites; the returned row is read before that draw (and cloned
	// where it is kept), so it may alias vgOut, but OutputRow must not
	// keep vgOut anywhere else.
	OutputRow func(outer engine.Row, vgOut []engine.Value) engine.Row
	// UncertainCols lists the indexes (into Schema) of the columns
	// produced by the VG function; the bundle executor keeps these as
	// per-iteration arrays and the rest as constants. A spec that
	// declares them executes on bundles; one that declares none
	// executes per instance.
	UncertainCols []int
}

// UncPos returns the position within UncertainCols of the schema column
// at idx, or false when that column is deterministic.
func (s *TableSpec) UncPos(idx int) (int, bool) { return uncPos(s.UncertainCols, idx) }

func uncPos(uncertainCols []int, idx int) (int, bool) {
	for k, c := range uncertainCols {
		if c == idx {
			return k, true
		}
	}
	return 0, false
}

// outputRow assembles one realized row from the outer tuple and the VG
// output (the spec's final SELECT).
func (s *TableSpec) outputRow(outer engine.Row, vgOut []engine.Value) engine.Row {
	if s.OutputRow != nil {
		return s.OutputRow(outer, vgOut)
	}
	row := make(engine.Row, 0, len(outer)+len(vgOut))
	row = append(row, outer...)
	return append(row, vgOut...)
}

func (s *TableSpec) validate() error {
	if s.Name == "" || s.VG == nil {
		return fmt.Errorf("%w: %q needs a name and a VG function", ErrBadSpec, s.Name)
	}
	if err := s.Schema.Validate(); err != nil {
		return err
	}
	for _, c := range s.UncertainCols {
		if c < 0 || c >= len(s.Schema) {
			return fmt.Errorf("%w: uncertain column index %d out of range", ErrBadSpec, c)
		}
	}
	return nil
}

// DB is a Monte Carlo database: deterministic base tables plus
// stochastic table specifications.
type DB struct {
	Base  *engine.Database
	specs []*TableSpec
}

// New creates an MCDB over the given deterministic base tables.
func New(base *engine.Database) *DB {
	if base == nil {
		base = engine.NewDatabase()
	}
	return &DB{Base: base}
}

// AddSpec registers a stochastic table specification.
func (db *DB) AddSpec(spec *TableSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	db.specs = append(db.specs, spec)
	return nil
}

// Spec returns the named specification.
func (db *DB) Spec(name string) (*TableSpec, error) {
	for _, s := range db.specs {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSpec, name)
}

// realizeSpec materializes one realization of a stochastic table,
// checking ctx every few hundred tuples so a large realization can be
// aborted mid-build.
func (db *DB) realizeSpec(ctx context.Context, spec *TableSpec, r *rng.Stream) (*engine.Table, error) {
	out, err := engine.NewTable(spec.Name, spec.Schema)
	if err != nil {
		return nil, err
	}
	outers, err := db.outerRows(spec)
	if err != nil {
		return nil, err
	}
	for i, outer := range outers {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row, err := db.realizeTuple(spec, outer, r)
		if err != nil {
			return nil, err
		}
		if err := out.Insert(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// outerRows returns the FOR EACH loop rows ([nil] when absent).
func (db *DB) outerRows(spec *TableSpec) ([]engine.Row, error) {
	if spec.ForEach == "" {
		return []engine.Row{nil}, nil
	}
	t, err := db.Base.Get(spec.ForEach)
	if err != nil {
		return nil, err
	}
	return t.Rows, nil
}

// vgParams resolves the parameter row for one outer tuple.
func (db *DB) vgParams(spec *TableSpec, outer engine.Row) (engine.Row, error) {
	if spec.Params == nil {
		return outer, nil
	}
	return spec.Params(db.Base, outer)
}

// realizeTuple realizes one output row for one outer tuple.
func (db *DB) realizeTuple(spec *TableSpec, outer engine.Row, r *rng.Stream) (engine.Row, error) {
	params, err := db.vgParams(spec, outer)
	if err != nil {
		return nil, err
	}
	// A nil buffer: Table.Insert retains the row, and a custom OutputRow
	// may return vgOut itself.
	vgOut, err := spec.VG(params, r, nil)
	if err != nil {
		return nil, err
	}
	return spec.outputRow(outer, vgOut), nil
}

// Instantiate produces one complete database instance: a clone of the
// deterministic tables plus one realization of every stochastic table.
// Callers inside a parallel loop get cancellation from the loop
// itself; callers holding a context should prefer InstantiateCtx.
func (db *DB) Instantiate(r *rng.Stream) (*engine.Database, error) {
	return db.InstantiateCtx(context.Background(), r)
}

// InstantiateCtx is Instantiate with cancellation: ctx is observed
// between stochastic tables and every few hundred realized tuples, so
// a server handler can abort an instantiation mid-build with ctx.Err().
func (db *DB) InstantiateCtx(ctx context.Context, r *rng.Stream) (*engine.Database, error) {
	inst := db.Base.Clone()
	for _, spec := range db.specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := db.realizeSpec(ctx, spec, r)
		if err != nil {
			return nil, err
		}
		inst.Put(t)
	}
	return inst, nil
}

// Query maps a realized database instance to a scalar sample from the
// query-result distribution.
type Query func(inst *engine.Database) (float64, error)

// MonteCarlo runs the query over iters independent database instances,
// re-instantiating and re-executing everything per iteration — the
// baseline the tuple-bundle executor is measured against in experiment
// E1. Iterations fan out over the parallel runtime: each iteration
// draws from a substream split from seed in index order, so the
// returned samples are bit-identical at any worker count (workers ≤ 0
// uses the context default). Cancellation of ctx aborts between
// iterations with ctx.Err().
func (db *DB) MonteCarlo(ctx context.Context, iters int, seed uint64, workers int, q Query) ([]float64, error) {
	opts := ExecOptions{Iterations: iters, Seed: seed, Workers: workers}
	if err := checkWindow(opts, 0, iters); err != nil {
		return nil, err
	}
	return db.perInstance(ctx, opts, 0, iters, q)
}

// perInstance is the per-instance executor: for each iteration of the
// window [lo, hi) of an opts.Iterations run, instantiate a database on
// that iteration's substream and take one scalar from it.
func (db *DB) perInstance(ctx context.Context, opts ExecOptions, lo, hi int, q Query) ([]float64, error) {
	out := make([]float64, hi-lo)
	err := parallel.ForStreamsRange(ctx, rng.New(opts.Seed), opts.Iterations, lo, hi, parallel.Options{Workers: opts.Workers},
		func(i int, r *rng.Stream) error {
			inst, err := db.Instantiate(r)
			if err != nil {
				return err
			}
			v, err := q(inst)
			if err != nil {
				return err
			}
			out[i-lo] = v
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
