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
//     designed to avoid.
//
// Arbitrary SQL (Session.ExecSQL) follows the same declaration: a
// statement over one stochastic table with float UncertainCols runs its
// joins and deterministic filters once per (session, statement) and
// draws only the uncertain columns per iteration (planOnce); any other
// statement runs per instance.
//
// What does not depend on the draw is resolved once per session: the
// FOR EACH rows, every spec's VG parameter rows and each statement's
// bound plan. A Session therefore assumes DB.Base does not change while
// it is live — the bundle cache always did; open a new Session after
// changing a base table.
package mcdb

import (
	"context"
	"errors"
	"fmt"
	"slices"

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
// out is the caller's buffer. Both executors hand the same one back
// emptied (buf[:0]) for every draw — each iteration of a tuple on
// bundles, each tuple of a realization per instance — so a VG must not
// keep out or the slice it returns past the call. params is shared by
// every draw of its tuple and must not be written. An error from a VG
// or a parameter query is reported wrapping ErrBadSpec.
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
	// It must be a function of the base tables and the outer row alone:
	// a Session resolves it once per outer tuple for its whole life and
	// reads the result, which is read-only from then on, at every
	// iteration of every run. A nil Params passes the outer row itself to
	// the VG function.
	Params func(db *engine.Database, outer engine.Row) (engine.Row, error)
	// VG generates one realization of the uncertain values.
	VG VG
	// OutputRow assembles a realized row from the outer tuple and the
	// VG output (the final SELECT). A nil OutputRow appends the VG
	// values to the outer row — the form the bundle sampling loop reads
	// without assembling a row per draw. A custom OutputRow is called
	// for every draw, so that route pays whatever row it allocates per
	// tuple-iteration; a fresh engine.Row is 32 B per cell, the size of
	// an engine.Value. On either executor vgOut is a buffer the next
	// draw overwrites; the returned row is read (bundles) or copied into
	// the realized table (per instance) before that draw, so it may
	// alias vgOut or outer, but OutputRow must not keep vgOut anywhere
	// else.
	OutputRow func(outer engine.Row, vgOut []engine.Value) engine.Row
	// UncertainCols lists the indexes (into Schema) of the columns
	// produced by the VG function; the bundle executor keeps these as
	// per-iteration arrays and the rest as constants. A spec that
	// declares them executes on bundles; one that declares none
	// executes per instance.
	UncertainCols []int
}

// badSpec marks err as a fault of the spec — its parameter query, its VG
// or the row they produce — rather than of the query being run.
func badSpec(err error) error {
	if errors.Is(err, ErrBadSpec) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrBadSpec, err)
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

// instancer holds what every realization shares because it does not
// depend on the random draw: per spec (in db.specs order) the FOR EACH
// rows and the VG parameter rows. It is read-only once built, so the
// iterations of a run, and the runs of a Session, use one concurrently.
type instancer struct {
	db             *DB
	outers, params [][]engine.Row
}

// newInstancer resolves every spec's outer rows and runs its parameter
// query once per outer tuple (a nil Params shares the outer rows),
// checking ctx every few hundred tuples.
func (db *DB) newInstancer(ctx context.Context) (*instancer, error) {
	in := &instancer{db: db, outers: make([][]engine.Row, len(db.specs)), params: make([][]engine.Row, len(db.specs))}
	for s, spec := range db.specs {
		outers, err := db.outerRows(spec)
		if err != nil {
			return nil, err
		}
		in.outers[s], in.params[s] = outers, outers
		if spec.Params == nil {
			continue
		}
		params := make([]engine.Row, len(outers))
		for i, outer := range outers {
			if i%256 == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if params[i], err = db.vgParams(spec, outer); err != nil {
				return nil, err
			}
		}
		in.params[s] = params
	}
	return in, nil
}

// instantiate produces one database instance on r: a clone of the
// deterministic tables plus one realization of every stochastic table.
// ctx is observed between tables and every few hundred realized tuples.
func (in *instancer) instantiate(ctx context.Context, r *rng.Stream) (*engine.Database, error) {
	tables, err := in.realize(ctx, r)
	if err != nil {
		return nil, err
	}
	inst := in.db.Base.Clone()
	for _, t := range tables {
		inst.Put(t)
	}
	return inst, nil
}

// realize draws one realization of every stochastic table on r, in
// db.specs order.
func (in *instancer) realize(ctx context.Context, r *rng.Stream) ([]*engine.Table, error) {
	tables := make([]*engine.Table, len(in.db.specs))
	for s, spec := range in.db.specs {
		var err error
		if tables[s], err = realizeSpec(ctx, spec, in.outers[s], in.params[s], r); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// drawSpec is the one tuple loop of a realization. For every outer
// tuple, in order, it draws the VG on r into one reused buffer, copies
// the draw's row — outer ++ vgOut, or the custom OutputRow's result,
// which may therefore alias vgOut — into the slot the caller hands out
// before the next draw, conforms it to the schema by Insert's rule, and
// gives it to got. ctx is observed every 256 tuples.
func drawSpec(ctx context.Context, spec *TableSpec, outers, params []engine.Row, r *rng.Stream,
	slot func(i int) engine.Row, got func(i int, row engine.Row) error) error {
	width := len(spec.Schema)
	var vgBuf []engine.Value
	for i, outer := range outers {
		if i%256 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		var err error
		if vgBuf, err = spec.VG(params[i], r, vgBuf[:0]); err != nil {
			return badSpec(err)
		}
		head, tail := outer, engine.Row(vgBuf)
		if spec.OutputRow != nil {
			head, tail = nil, spec.OutputRow(outer, vgBuf)
		}
		row := slot(i)
		if len(head)+len(tail) == width {
			n := copy(row, head)
			copy(row[n:], tail)
		} else {
			row = append(head.Clone(), tail...) // Conform words the arity error
		}
		if err := spec.Schema.Conform(spec.Name, row); err != nil {
			return badSpec(err)
		}
		if err := got(i, row); err != nil {
			return err
		}
	}
	return nil
}

// realizeSpec materializes one realization of a stochastic table into
// one slab of Values, one slot per outer tuple.
func realizeSpec(ctx context.Context, spec *TableSpec, outers, params []engine.Row, r *rng.Stream) (*engine.Table, error) {
	width := len(spec.Schema)
	rows := make([]engine.Row, len(outers))
	slab := make([]engine.Value, len(outers)*width)
	err := drawSpec(ctx, spec, outers, params, r,
		func(i int) engine.Row { return slab[i*width : (i+1)*width : (i+1)*width] },
		func(i int, row engine.Row) error { rows[i] = row; return nil })
	if err != nil {
		return nil, err
	}
	return &engine.Table{Name: spec.Name, Schema: spec.Schema.Clone(), Rows: rows}, nil
}

// vectorSet is what one plan-once draw fills: spec read's uncertain
// cells, one []float64 per entry of its UncertainCols, and the scratch
// row drawSpec copies every spec's tuples into. A draw that succeeds
// overwrites every cell of vecs, so the draws of a window reuse a set
// without clearing it.
type vectorSet struct {
	vecs    [][]float64
	scratch engine.Row
}

// newVectorSet allocates a vectorSet for statements reading spec read.
func (in *instancer) newVectorSet(read int) *vectorSet {
	width := 0
	for _, spec := range in.db.specs {
		width = max(width, len(spec.Schema))
	}
	n := len(in.outers[read])
	vs := &vectorSet{vecs: make([][]float64, len(in.db.specs[read].UncertainCols)), scratch: make(engine.Row, width)}
	slab := make([]float64, len(vs.vecs)*n)
	for k := range vs.vecs {
		vs.vecs[k] = slab[k*n : (k+1)*n : (k+1)*n]
	}
	return vs
}

// drawVectors is one realization as the plan-once executor needs it:
// every spec's VG is still called for every tuple in db.specs order, so
// r ends where realize would leave it and a broken spec fails as it
// would there, but only spec read's uncertain cells are kept, in
// into.vecs. Its other cells are the first draw's, which the statement
// was executed over. Those the default OutputRow copies from the outer
// row cannot differ; the rest — a custom OutputRow's, or VG output not
// declared uncertain — are compared bit for bit with first, the realized
// rows of that draw, and a difference is the spec's fault. A failed draw
// leaves into.vecs partly written.
func (in *instancer) drawVectors(ctx context.Context, read int, first []engine.Row, r *rng.Stream, into *vectorSet) error {
	for s, spec := range in.db.specs {
		scratch := into.scratch[:len(spec.Schema)]
		got := func(int, engine.Row) error { return nil }
		if s == read {
			copied := 0 // leading cells the default OutputRow takes from the outer row
			if spec.OutputRow == nil && len(in.outers[s]) > 0 {
				copied = len(in.outers[s][0])
			}
			var det []int // the cells a draw could change unnoticed
			for c := copied; c < len(spec.Schema); c++ {
				if _, unc := spec.UncPos(c); !unc {
					det = append(det, c)
				}
			}
			vecs, unc := into.vecs, spec.UncertainCols
			got = func(i int, row engine.Row) error {
				for k, c := range unc {
					vecs[k][i] = row[c].AsFloat()
				}
				for _, c := range det {
					if row[c] != first[i][c] {
						return fmt.Errorf("%w: %q column %q is not in UncertainCols but changed between draws (tuple %d: %v, then %v)",
							ErrBadSpec, spec.Name, spec.Schema[c].Name, i, first[i][c], row[c])
					}
				}
				return nil
			}
		}
		if err := drawSpec(ctx, spec, in.outers[s], in.params[s], r, func(int) engine.Row { return scratch }, got); err != nil {
			return err
		}
	}
	return nil
}

// outerRows returns the FOR EACH loop rows ([nil] when absent).
func (db *DB) outerRows(spec *TableSpec) ([]engine.Row, error) {
	if spec.ForEach == "" {
		return []engine.Row{nil}, nil
	}
	t, err := db.Base.Get(spec.ForEach)
	if err != nil {
		return nil, badSpec(err)
	}
	return t.Rows, nil
}

// vgParams resolves the parameter row for one outer tuple.
func (db *DB) vgParams(spec *TableSpec, outer engine.Row) (engine.Row, error) {
	if spec.Params == nil {
		return outer, nil
	}
	params, err := spec.Params(db.Base, outer)
	if err != nil {
		return nil, badSpec(err)
	}
	return params, nil
}

// Instantiate produces one complete database instance: a clone of the
// deterministic tables plus one realization of every stochastic table.
// Callers inside a parallel loop get cancellation from the loop
// itself; callers holding a context should prefer InstantiateCtx.
func (db *DB) Instantiate(r *rng.Stream) (*engine.Database, error) {
	return db.InstantiateCtx(context.Background(), r)
}

// InstantiateCtx is Instantiate with cancellation: ctx is observed
// between stochastic tables and every few hundred tuples, so a server
// handler can abort an instantiation mid-build with ctx.Err(). Each call
// resolves the parameter queries afresh; a Session resolves them once
// for its whole life.
func (db *DB) InstantiateCtx(ctx context.Context, r *rng.Stream) (*engine.Database, error) {
	in, err := db.newInstancer(ctx)
	if err != nil {
		return nil, err
	}
	return in.instantiate(ctx, r)
}

// Query maps a realized database instance to a scalar sample from the
// query-result distribution.
type Query func(inst *engine.Database) (float64, error)

// MonteCarlo runs the query over iters independent database instances,
// re-instantiating and re-executing everything per iteration — the
// baseline the tuple-bundle executor is measured against in experiment
// E1. That is why it calls InstantiateCtx per iteration, parameter
// queries included, where a Session resolves them once: the strawman
// stays naive by construction. Iterations fan out over the
// parallel runtime: each iteration draws from a substream split from
// seed in index order, so the returned samples are bit-identical at any
// worker count (workers ≤ 0 uses the context default). Cancellation of
// ctx aborts mid-instantiation with ctx.Err().
func (db *DB) MonteCarlo(ctx context.Context, iters int, seed uint64, workers int, q Query) ([]float64, error) {
	opts := ExecOptions{Iterations: iters, Seed: seed, Workers: workers}
	if err := checkWindow(opts, 0, iters); err != nil {
		return nil, err
	}
	return perInstance(ctx, opts, 0, iters, db.InstantiateCtx, q)
}

// deferred binds p for plan-once execution: against the base tables and
// one still empty table per spec, with each spec's UncertainCols as what
// a draw changes. It returns nil when the statement has to run per
// instance (see engine.Prepared.Defer), and otherwise the index of the
// one spec the statement reads.
func (in *instancer) deferred(p *engine.Prepared) (*engine.Deferred, int, error) {
	inst := in.db.Base.Clone()
	tables := make([]*engine.Table, len(in.db.specs))
	uncertain := make(map[*engine.Table][]int, len(in.db.specs))
	for s, spec := range in.db.specs {
		tables[s] = &engine.Table{Name: spec.Name, Schema: spec.Schema.Clone()}
		inst.Put(tables[s])
		uncertain[tables[s]] = spec.UncertainCols
	}
	d, err := p.Defer(inst, uncertain)
	if d == nil || err != nil {
		return nil, 0, err
	}
	return d, slices.Index(tables, d.Table()), nil
}

// planOnce is the tuple-bundle executor for SQL. The statement is
// executed once per session — joins, deterministic filters, written
// order — over one full realization (statement.bind), and every
// iteration after that draws only the read spec's uncertain columns,
// from the same substream in the same order a full realization would,
// and evaluates what depends on them over the finished join. Samples
// are the bits perInstance returns for p.Scalar.
func (st *statement) planOnce(ctx context.Context, in *instancer, opts ExecOptions, lo, hi int) ([]float64, error) {
	out := make([]float64, hi-lo)
	if lo == hi {
		return out, nil
	}
	first, done, err := st.bind(ctx, in, opts, lo, out)
	if err != nil {
		return nil, err
	}
	// free holds the vector sets no draw is filling, so the window
	// allocates one per worker rather than one per iteration. A set goes
	// back only after a whole draw and the Scalar that read it; a failed
	// draw's set is dropped. It is a channel, not a sync.Pool, for the
	// reason engine.Scratch gives.
	workers := opts.Workers
	if workers <= 0 {
		workers = parallel.WorkersFrom(ctx)
	}
	free := make(chan *vectorSet, min(workers, hi-lo-done))
	err = parallel.ForStreamsRange(ctx, rng.New(opts.Seed), opts.Iterations, lo+done, hi, parallel.Options{Workers: opts.Workers},
		func(i int, r *rng.Stream) error {
			var vs *vectorSet
			select {
			case vs = <-free:
			default:
				vs = in.newVectorSet(st.read)
			}
			if err := in.drawVectors(ctx, st.read, first, r, vs); err != nil {
				return err
			}
			v, err := st.d.Scalar(vs.vecs)
			if err != nil {
				return err
			}
			out[i-lo] = v
			select {
			case free <- vs:
			default:
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// perInstance is the one per-instance loop: for each iteration of the
// window [lo, hi) of an opts.Iterations run, instantiate a database on
// that iteration's substream — under ctx, so cancellation stops a
// realization mid-build — and take one scalar from it.
func perInstance(ctx context.Context, opts ExecOptions, lo, hi int,
	instantiate func(context.Context, *rng.Stream) (*engine.Database, error), q Query) ([]float64, error) {
	out := make([]float64, hi-lo)
	err := parallel.ForStreamsRange(ctx, rng.New(opts.Seed), opts.Iterations, lo, hi, parallel.Options{Workers: opts.Workers},
		func(i int, r *rng.Stream) error {
			inst, err := instantiate(ctx, r)
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
