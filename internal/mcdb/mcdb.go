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
	"math"
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
// produced by the spec's parameter query, it draws a run of
// realizations of the uncertain values of a single outer tuple. VG
// functions range from a draw from a normal distribution to a full
// backward random walk (see vg.go).
type VG struct {
	// Width is the number of values in one realization, at least 1.
	Width int
	// Draw fills out[k][j] with value k of realization j, for k in
	// [0, Width) and j in [0, len(out[0])), drawing the realizations in
	// order from r. It must consume exactly the stream len(out[0]) calls
	// drawing one realization each would, so a run drawn whole and the
	// same run drawn one realization at a time are the same bits: the
	// bundle executor draws all of a tuple's iterations in one call, the
	// per-instance executors one realization per tuple per call. Draw
	// keeps neither out nor params; params is shared by every draw of its
	// tuple and must not be written. An error from Draw or a parameter
	// query is reported wrapping ErrBadSpec. Loop realizations outside
	// values (for j { for k }): drawing a column's run before the next
	// column's reorders the stream at Width ≥ 2, and the executors then
	// disagree.
	//
	// The run, not one realization per call, is what makes a bundle
	// cheap: the parameters are decoded and checked once per tuple and
	// the loop over realizations is the distribution's own. A form
	// drawing one realization per call, called iters times per tuple,
	// measured 88 ns per tuple-iteration on SBPDatabase(500) × 1000
	// iterations against 70 ns for the run (109 ns for the boxed VG it
	// replaced), one core of a shared 2-vCPU VM.
	Draw func(params engine.Row, r *rng.Stream, out [][]float64) error
}

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
	// VG generates the realizations of the uncertain values.
	VG VG
	// OutputRow assembles a realized row from the outer tuple and one
	// realization of the VG output (the final SELECT). A nil OutputRow
	// appends the VG values to the outer row, typed by the schema: value
	// k lands in column len(outer)+k, a Float column as engine.Float, an
	// Int column as engine.Int when the value is an integer in int64's
	// range (so Poisson counts stay exact) and as ErrBadSpec wrapping
	// engine.ErrTypeClash otherwise; a String or Bool column, or
	// len(outer)+VG.Width ≠ len(Schema), is ErrBadSpec. That is the form
	// the bundle executor reads straight from the VG's vectors, without a
	// row per draw; the per-instance executors assemble it in a reused
	// row. A custom OutputRow is called for every draw, with vgOut
	// holding that realization as engine.Float values, so that route pays
	// whatever row it allocates per tuple-iteration; a fresh engine.Row
	// is 32 B per cell, the size of an engine.Value. vgOut is a view the
	// next draw overwrites; the returned row is read (bundles) or copied
	// into the realized table (per instance) before that draw, so it may
	// alias vgOut or outer, but OutputRow must not keep vgOut anywhere
	// else.
	OutputRow func(outer engine.Row, vgOut []engine.Value) engine.Row
	// UncertainCols lists the indexes (into Schema) of the columns
	// produced by the VG function, each once; the bundle executor keeps
	// these as per-iteration arrays and the rest as constants. A spec
	// that declares them executes on bundles; one that declares none
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

// vgCols is where a spec's VG values land under the default OutputRow:
// value k in column outer+k. ints lists the values bound for Int
// columns.
type vgCols struct {
	outer int
	ints  []int
}

// layout checks the default OutputRow of s over outers against its
// schema — once per realization of the spec, not once per draw — and
// returns where the VG values land. A custom OutputRow, or no outer
// tuple to draw for, has nothing to check.
func (s *TableSpec) layout(outers []engine.Row) (vgCols, error) {
	if s.OutputRow != nil || len(outers) == 0 {
		return vgCols{}, nil
	}
	cols := vgCols{outer: len(outers[0])}
	if n := cols.outer + s.VG.Width; n != len(s.Schema) {
		return vgCols{}, fmt.Errorf("%w: %w: %q produced %d values, schema has %d",
			ErrBadSpec, engine.ErrArity, s.Name, n, len(s.Schema))
	}
	for k := 0; k < s.VG.Width; k++ {
		switch col := s.Schema[cols.outer+k]; col.Type {
		case engine.TypeFloat:
		case engine.TypeInt:
			cols.ints = append(cols.ints, k)
		default:
			return vgCols{}, fmt.Errorf("%w: %w: %q column %q is %s, VG values are numeric",
				ErrBadSpec, engine.ErrTypeClash, s.Name, col.Name, col.Type)
		}
	}
	return cols, nil
}

// checkInts fails unless every value out holds for an Int column of
// spec is an integer in int64's range.
func (c vgCols) checkInts(spec *TableSpec, out [][]float64) error {
	for _, k := range c.ints {
		for _, v := range out[k] {
			if v != math.Trunc(v) || v < -0x1p63 || v >= 0x1p63 {
				return fmt.Errorf("%w: %w: %q column %q: VG value %v is not an integer",
					ErrBadSpec, engine.ErrTypeClash, spec.Name, spec.Schema[c.outer+k].Name, v)
			}
		}
	}
	return nil
}

// cell boxes v, VG value k of spec, for its column; checkInts has
// passed.
func (c vgCols) cell(spec *TableSpec, k int, v float64) engine.Value {
	if spec.Schema[c.outer+k].Type == engine.TypeInt {
		return engine.Int(int64(v))
	}
	return engine.Float(v)
}

// vgBuffer returns a width×n VG draw buffer over one slab.
func vgBuffer(width, n int) [][]float64 {
	slab := make([]float64, width*n)
	out := make([][]float64, width)
	for k := range out {
		out[k] = slab[k*n : (k+1)*n : (k+1)*n]
	}
	return out
}

// check reports a VG that cannot draw.
func (vg VG) check(name string) error {
	if vg.Draw == nil || vg.Width < 1 {
		return fmt.Errorf("%w: %q needs a VG function drawing at least one value, got width %d", ErrBadSpec, name, vg.Width)
	}
	return nil
}

func (s *TableSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: a stochastic table needs a name", ErrBadSpec)
	}
	if err := s.VG.check(s.Name); err != nil {
		return err
	}
	if err := s.Schema.Validate(); err != nil {
		return err
	}
	for i, c := range s.UncertainCols {
		if c < 0 || c >= len(s.Schema) {
			return fmt.Errorf("%w: uncertain column index %d out of range", ErrBadSpec, c)
		}
		if slices.Contains(s.UncertainCols[:i], c) {
			return fmt.Errorf("%w: uncertain column index %d listed twice", ErrBadSpec, c)
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
	buf := newDrawBuf(in.db.specs)
	for s, spec := range in.db.specs {
		var err error
		if tables[s], err = realizeSpec(ctx, spec, in.outers[s], in.params[s], r, buf); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// drawBuf is what drawSpec reuses from tuple to tuple, and from spec to
// spec: a Width×1 VG buffer and the engine.Float view of it a custom
// OutputRow reads, as wide as the widest VG of the specs it serves.
type drawBuf struct {
	out  [][]float64
	view engine.Row
}

func newDrawBuf(specs []*TableSpec) drawBuf {
	width := 0
	for _, spec := range specs {
		width = max(width, spec.VG.Width)
	}
	return drawBuf{out: vgBuffer(width, 1), view: make(engine.Row, width)}
}

// drawSpec is the one tuple loop of a realization. For every outer
// tuple, in order, it draws one realization of the VG on r into buf,
// assembles the tuple's row in the slot the caller hands out — outer ++
// the VG values typed by the schema, or a copy of the custom
// OutputRow's result over buf's view of them, which may therefore alias
// the view — conforms it to the schema by Insert's rule, and gives it to
// got before the next draw. ctx is observed every 256 tuples.
func drawSpec(ctx context.Context, spec *TableSpec, outers, params []engine.Row, r *rng.Stream, buf drawBuf,
	slot func(i int) engine.Row, got func(i int, row engine.Row) error) error {
	cols, err := spec.layout(outers)
	if err != nil {
		return err
	}
	width := len(spec.Schema)
	out, view := buf.out[:spec.VG.Width], buf.view[:spec.VG.Width]
	for i, outer := range outers {
		if i%256 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if err := spec.VG.Draw(params[i], r, out); err != nil {
			return badSpec(err)
		}
		row := slot(i)
		if spec.OutputRow == nil {
			if err := cols.checkInts(spec, out); err != nil {
				return err
			}
			copy(row, outer)
			for k, vals := range out {
				row[cols.outer+k] = cols.cell(spec, k, vals[0])
			}
		} else {
			for k, vals := range out {
				view[k] = engine.Float(vals[0])
			}
			if tail := spec.OutputRow(outer, view); len(tail) == width {
				copy(row, tail)
			} else {
				row = tail.Clone() // Conform words the arity error
			}
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
func realizeSpec(ctx context.Context, spec *TableSpec, outers, params []engine.Row, r *rng.Stream, buf drawBuf) (*engine.Table, error) {
	width := len(spec.Schema)
	rows := make([]engine.Row, len(outers))
	slab := make([]engine.Value, len(outers)*width)
	err := drawSpec(ctx, spec, outers, params, r, buf,
		func(i int) engine.Row { return slab[i*width : (i+1)*width : (i+1)*width] },
		func(i int, row engine.Row) error { rows[i] = row; return nil })
	if err != nil {
		return nil, err
	}
	return &engine.Table{Name: spec.Name, Schema: spec.Schema.Clone(), Rows: rows}, nil
}

// vectorSet is what one plan-once draw fills: spec read's uncertain
// cells, one []float64 per entry of its UncertainCols, and the buffers
// drawSpec reuses for every spec — its drawBuf and the scratch row it
// assembles tuples in. A draw that succeeds overwrites every cell of
// vecs, so the draws of a window reuse a set without clearing it.
type vectorSet struct {
	vecs    [][]float64
	buf     drawBuf
	scratch engine.Row
}

// newVectorSet allocates a vectorSet for statements reading spec read.
func (in *instancer) newVectorSet(read int) *vectorSet {
	width := 0
	for _, spec := range in.db.specs {
		width = max(width, len(spec.Schema))
	}
	return &vectorSet{
		vecs:    vgBuffer(len(in.db.specs[read].UncertainCols), len(in.outers[read])),
		buf:     newDrawBuf(in.db.specs),
		scratch: make(engine.Row, width),
	}
}

// drawVectors is one realization as the plan-once executor needs it:
// every spec's VG is still called for every tuple in db.specs order, so
// r ends where realize would leave it and a broken draw fails as it
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
			got = func(i int, row engine.Row) error {
				for k, c := range spec.UncertainCols {
					into.vecs[k][i] = row[c].AsFloat()
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
		if err := drawSpec(ctx, spec, in.outers[s], in.params[s], r, into.buf, func(int) engine.Row { return scratch }, got); err != nil {
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
// itself.
func (db *DB) Instantiate(r *rng.Stream) (*engine.Database, error) {
	return db.instantiateCtx(context.Background(), r)
}

// instantiateCtx is Instantiate with cancellation: ctx is observed
// between stochastic tables and every few hundred tuples, so a server
// handler can abort an instantiation mid-build with ctx.Err(). Each call
// resolves the parameter queries afresh; a Session resolves them once
// for its whole life.
func (db *DB) instantiateCtx(ctx context.Context, r *rng.Stream) (*engine.Database, error) {
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
// E1. That is why it calls instantiateCtx per iteration, parameter
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
	return perInstance(ctx, opts, 0, iters, db.instantiateCtx, q)
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
