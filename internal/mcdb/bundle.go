package mcdb

import (
	"context"
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// BundleTable is a stochastic table materialized as tuple bundles:
// MCDB's plan-once execution (§2.1). Each tuple stores its
// deterministic attributes exactly once; each uncertain attribute
// stores its instantiations across all Monte Carlo iterations. A
// realization always covers the full run; only a what-if's changed
// world (see changedWindow) is a window view, holding one shard's
// iterations and nothing else.
type BundleTable struct {
	Name   string
	Schema engine.Schema
	Iters  int
	// UncertainCols are the schema indexes carried per iteration.
	UncertainCols []int
	// Det holds the deterministic attributes of each tuple; uncertain
	// positions hold the zero Value and must not be read.
	Det []engine.Row
	// Unc[tuple][k][iter] is the value of the k-th uncertain column of
	// the tuple at the given Monte Carlo iteration.
	Unc [][][]float64
	// off is the iteration Unc's arrays start at: zero for a realized
	// table, the window's first iteration for a window view, whose
	// Unc[tuple][k][iter-off] holds iteration iter.
	off int
}

// InstantiateBundled realizes every stochastic table as a BundleTable
// with iters Monte Carlo instantiations per uncertain cell on the
// default worker pool. See InstantiateBundledCtx.
func (db *DB) InstantiateBundled(iters int, seed uint64) (map[string]*BundleTable, error) {
	return db.InstantiateBundledCtx(context.Background(), iters, seed, 0)
}

// InstantiateBundledCtx realizes every stochastic table as a
// BundleTable with iters Monte Carlo instantiations per uncertain
// cell. The outer FOR EACH loop, parameter queries, and row assembly
// run once; only the VG sampling repeats per iteration — this is the
// tuple-bundle optimization. Tuples fan out over the parallel runtime
// with one substream per tuple (split in tuple order), so the realized
// bundles are bit-identical at any worker count. Spec Params and VG
// hooks must be safe for concurrent calls with distinct streams; every
// hook in this repository is.
func (db *DB) InstantiateBundledCtx(ctx context.Context, iters int, seed uint64, workers int) (map[string]*BundleTable, error) {
	if err := checkWindow(ExecOptions{Iterations: iters}, 0, iters); err != nil {
		return nil, err
	}
	in, err := db.newInstancer(ctx)
	if err != nil {
		return nil, err
	}
	return in.bundled(ctx, iters, seed, workers)
}

// bundled is InstantiateBundledCtx over the resolved rows of in.
func (in *instancer) bundled(ctx context.Context, iters int, seed uint64, workers int) (map[string]*BundleTable, error) {
	ctx, span := obs.Start(ctx, "mcdb.instantiate_bundled")
	span.SetInt("iters", int64(iters))
	span.SetInt("tables", int64(len(in.db.specs)))
	defer span.End()
	r := rng.New(seed)
	out := make(map[string]*BundleTable, len(in.db.specs))
	for s, spec := range in.db.specs {
		bt, err := bundleSpec(ctx, spec, in.outers[s], in.params[s], iters, r.Split(), workers)
		if err != nil {
			return nil, err
		}
		out[spec.Name] = bt
	}
	return out, nil
}

func bundleSpec(ctx context.Context, spec *TableSpec, outers, params []engine.Row, iters int, r *rng.Stream, workers int) (*BundleTable, error) {
	if len(spec.UncertainCols) == 0 {
		return nil, fmt.Errorf("%w: %q has no UncertainCols for bundled execution", ErrBadSpec, spec.Name)
	}
	bt := &BundleTable{
		Name:          spec.Name,
		Schema:        spec.Schema.Clone(),
		Iters:         iters,
		UncertainCols: append([]int(nil), spec.UncertainCols...),
		Det:           make([]engine.Row, len(outers)),
		Unc:           make([][][]float64, len(outers)),
	}
	cols, err := spec.layout(outers)
	if err != nil {
		return nil, err
	}
	err = parallel.ForStreams(ctx, r, len(outers), parallel.Options{Workers: workers},
		func(ti int, tr *rng.Stream) (err error) {
			bt.Det[ti], bt.Unc[ti], err = sampleTuple(spec, cols, outers[ti], params[ti], tr, iters)
			return err
		})
	if err != nil {
		return nil, err
	}
	return bt, nil
}

// sampleTuple realizes one tuple's bundle from its resolved parameter
// row: one VG Draw fills all iters realizations from tr — the tuple's
// pristine substream — so the loop allocates per tuple, not per
// tuple-iteration. Under the default OutputRow (cols is spec.layout) an
// uncertain column's values are drawn straight into its array; only the
// first realization is assembled into a row, conformed to the schema by
// Insert's rule (so both executors hold the same Values for a spec), to
// supply the deterministic attributes. A custom OutputRow is called for
// every draw, over a reused view of the realization, and the row
// length and the uncertain columns' numeric type are checked on every
// draw.
func sampleTuple(spec *TableSpec, cols vgCols, outer, params engine.Row, tr *rng.Stream, iters int) (engine.Row, [][]float64, error) {
	unc := vgBuffer(len(spec.UncertainCols), iters)
	out := make([][]float64, spec.VG.Width)
	if spec.OutputRow == nil {
		for p, c := range spec.UncertainCols {
			if k := c - cols.outer; k >= 0 {
				out[k] = unc[p]
			}
		}
	}
	for k := range out {
		if out[k] == nil {
			out[k] = make([]float64, iters)
		}
	}
	if err := spec.VG.Draw(params, tr, out); err != nil {
		return nil, nil, badSpec(err)
	}
	if spec.OutputRow != nil {
		return sampleCustom(spec, outer, out, unc)
	}
	if err := cols.checkInts(spec, out); err != nil {
		return nil, nil, err
	}
	det := make(engine.Row, len(spec.Schema))
	copy(det, outer)
	for k, vals := range out {
		det[cols.outer+k] = cols.cell(spec, k, vals[0])
	}
	if err := spec.Schema.Conform(spec.Name, det); err != nil {
		return nil, nil, badSpec(err)
	}
	for p, c := range spec.UncertainCols {
		if c >= cols.outer {
			continue // drawn into unc[p]
		}
		// An outer attribute declared uncertain holds one value throughout.
		if !outer[c].IsNumeric() {
			return nil, nil, notNumeric(spec, c, outer[c])
		}
		for it := range unc[p] {
			unc[p][it] = outer[c].AsFloat()
		}
	}
	for _, c := range spec.UncertainCols {
		det[c] = engine.Value{}
	}
	return det, unc, nil
}

// sampleCustom is sampleTuple's custom-OutputRow route: out holds the
// tuple's realizations, drawn; each is handed to the OutputRow as
// engine.Float values in one reused view, and the row it returns is
// checked and read into unc.
func sampleCustom(spec *TableSpec, outer engine.Row, out, unc [][]float64) (engine.Row, [][]float64, error) {
	view := make(engine.Row, len(out))
	var det engine.Row
	for it := range out[0] {
		for k, vals := range out {
			view[k] = engine.Float(vals[it])
		}
		cells := spec.OutputRow(outer, view)
		if len(cells) != len(spec.Schema) {
			return nil, nil, fmt.Errorf("%w: %w: %q produced %d values, schema has %d",
				ErrBadSpec, engine.ErrArity, spec.Name, len(cells), len(spec.Schema))
		}
		if it == 0 {
			det = cells.Clone()
			if err := spec.Schema.Conform(spec.Name, det); err != nil {
				return nil, nil, badSpec(err)
			}
		}
		for p, c := range spec.UncertainCols {
			if !cells[c].IsNumeric() {
				return nil, nil, notNumeric(spec, c, cells[c])
			}
			unc[p][it] = cells[c].AsFloat()
		}
	}
	for _, c := range spec.UncertainCols {
		det[c] = engine.Value{}
	}
	return det, unc, nil
}

// notNumeric reports uncertain column c of spec holding v.
func notNumeric(spec *TableSpec, c int, v engine.Value) error {
	return fmt.Errorf("%w: %q uncertain column %d is %s, bundles require numeric", ErrBadSpec, spec.Name, c, v.Type())
}

// Len returns the number of tuples in the bundle table.
func (bt *BundleTable) Len() int { return len(bt.Det) }

// FilterDet applies a selection on deterministic attributes once for
// all iterations — the core saving of tuple bundles. The predicate
// receives the deterministic row (uncertain positions are zero Values).
func (bt *BundleTable) FilterDet(pred func(det engine.Row) bool) *BundleTable {
	out := &BundleTable{
		Name:          bt.Name,
		Schema:        bt.Schema.Clone(),
		Iters:         bt.Iters,
		UncertainCols: bt.UncertainCols,
	}
	for i, det := range bt.Det {
		if pred(det) {
			out.Det = append(out.Det, det)
			out.Unc = append(out.Unc, bt.Unc[i])
		}
	}
	return out
}

// UncPredicate qualifies a tuple at one Monte Carlo iteration; unc
// holds the tuple's uncertain values (ordered as UncertainCols) at that
// iteration. A nil UncPredicate accepts every tuple.
type UncPredicate func(det engine.Row, unc []float64) bool

// UncCmp is one conjunct of an uncertain predicate held as data: the
// Pos-th uncertain value of a tuple (ordered as UncertainCols) compared
// by Op — eq, ne, lt, le, gt or ge — against Lit. NaN orders as Less
// and Equal do on two engine.Float values: u le Lit is !(Lit < u), u ge
// Lit is !(u < Lit) and u ne Lit is !(u == Lit), so a NaN on either
// side passes le, ge and ne and fails eq, lt and gt. The kernel tests a
// conjunct with one typed loop over a whole run of iterations, where an
// UncPredicate costs a call per tuple-iteration.
type UncCmp struct {
	Pos int
	Op  string
	Lit float64
}

// validUncOp reports whether op is an UncCmp operator.
func validUncOp(op string) bool {
	switch op {
	case "eq", "ne", "lt", "le", "gt", "ge":
		return true
	}
	return false
}

// iterRun is a half-open run [lo, hi) of Monte Carlo iterations. A set
// of iterations is a list of disjoint ascending runs: the full set is
// the one run [0, Iters), and the kernel's inner loop stays contiguous.
type iterRun struct{ lo, hi int }

// Estimate scans the bundle table once and computes, per Monte Carlo
// iteration, the aggregate of the named uncertain column over tuples
// satisfying pred. The result is a sample of size Iters from the
// query-result distribution. Supported aggregates: COUNT, SUM, AVG.
//
// Iterations whose selection is empty (pred rejects every tuple)
// yield COUNT = 0, SUM = 0, and — by the repository-wide convention
// documented on Session.Exec — AVG = 0 rather than NaN, keeping the
// sample vector finite on both executors.
func (bt *BundleTable) Estimate(col string, fn engine.AggFunc, pred UncPredicate) ([]float64, error) {
	all := iterRun{0, bt.Iters}
	return bt.estimate(AggQuery{Col: col, Fn: fn, WhereUnc: pred}, all, []iterRun{all})
}

// estimate is the aggregation kernel behind Estimate and the bundle
// executor: q.Fn(q.Col) over the tuples that pass q's predicates, for
// the iterations of the window win that lie in runs, which win must
// hold. It returns one value per iteration of win, win.lo first; those
// outside runs are left zero and must not be read. bt holds win's
// iterations: a realized table holds them all, a window view (see off)
// at least win's. q.UncWhere must have passed checkQuery. Per tuple it
// tests WhereDet once, then per run selects the iterations that pass
// (see selector.pass) and adds their values. Tuples accumulate in tuple
// order whatever the runs and the window, so the value at an iteration
// is bitwise the same in any run set holding it — which is what lets
// delta execution re-aggregate only dirty iterations.
func (bt *BundleTable) estimate(q AggQuery, win iterRun, runs []iterRun) ([]float64, error) {
	schemaIdx, err := bt.Schema.ColIndex(q.Col)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	k, ok := uncPos(bt.UncertainCols, schemaIdx)
	if !ok {
		return nil, fmt.Errorf("%w: column %q is not uncertain in %q", ErrBadQuery, q.Col, bt.Name)
	}
	sums := make([]float64, win.hi-win.lo)
	counts := make([]float64, win.hi-win.lo)
	sel := newSelector(q, len(bt.UncertainCols), runs)
	for i, det := range bt.Det {
		if q.WhereDet != nil && !q.WhereDet(det) {
			continue
		}
		unc := bt.Unc[i]
		for _, r := range runs {
			at := iterRun{r.lo - bt.off, r.hi - bt.off} // r in unc's indexes
			vals := unc[k][at.lo:at.hi]
			s, c := sums[r.lo-win.lo:r.hi-win.lo], counts[r.lo-win.lo:r.hi-win.lo]
			if sel == nil {
				for j, v := range vals {
					s[j] += v
					c[j]++
				}
				continue
			}
			for _, j := range sel.pass(det, unc, at) {
				s[j] += vals[j]
				c[j]++
			}
		}
	}
	switch q.Fn {
	case engine.AggCount:
		return counts, nil
	case engine.AggSum:
		return sums, nil
	case engine.AggAvg:
		// Empty selection: AVG is 0 by convention (see Session.Exec) —
		// the untouched zero sum.
		for it, n := range counts {
			if n > 0 {
				sums[it] /= n
			}
		}
		return sums, nil
	}
	return nil, fmt.Errorf("%w: aggregate %v not supported", ErrBadQuery, q.Fn)
}

// selector applies the uncertain half of a query's WHERE clause — the
// UncWhere conjuncts, then WhereUnc — to one tuple over one run of
// iterations at a time. It holds the buffers every call reuses.
type selector struct {
	cmps []UncCmp
	pred UncPredicate
	idx  []int32   // the selection: offsets into the run, ascending
	buf  []float64 // the tuple's uncertain values at one iteration, for pred
}

// newSelector returns the selector of q over tuples with ncols
// uncertain columns, sized for the longest of runs, or nil when q sets
// no uncertain predicate and every iteration passes.
func newSelector(q AggQuery, ncols int, runs []iterRun) *selector {
	if len(q.UncWhere) == 0 && q.WhereUnc == nil {
		return nil
	}
	longest := 0
	for _, r := range runs {
		longest = max(longest, r.hi-r.lo)
	}
	return &selector{cmps: q.UncWhere, pred: q.WhereUnc,
		idx: make([]int32, longest), buf: make([]float64, ncols)}
}

// pass returns the offsets j, ascending, at which iteration r.lo+j of
// the tuple (det, unc) passes every conjunct and then WhereUnc, which
// is called only on the iterations the conjuncts left. The result
// aliases the selector's buffer until the next call.
func (s *selector) pass(det engine.Row, unc [][]float64, r iterRun) []int32 {
	sel := s.idx[:r.hi-r.lo]
	for j := range sel {
		sel[j] = int32(j)
	}
	for _, c := range s.cmps {
		sel = keep(sel, unc[c.Pos][r.lo:r.hi], c)
	}
	if s.pred != nil {
		n := 0
		for _, j := range sel {
			for k := range s.buf {
				s.buf[k] = unc[k][r.lo+int(j)]
			}
			if s.pred(det, s.buf) {
				sel[n] = j
				n++
			}
		}
		sel = sel[:n]
	}
	return sel
}

// keep compacts sel, in place and in order, to the offsets j at which
// xs[j] passes c. Each operator is one loop that branches on no value:
// every offset is written, and the count advances by the comparison's
// outcome.
func keep(sel []int32, xs []float64, c UncCmp) []int32 {
	n, lit := 0, c.Lit
	switch c.Op {
	case "eq":
		for _, j := range sel {
			sel[n] = j
			n += b2i(xs[j] == lit)
		}
	case "ne":
		for _, j := range sel {
			sel[n] = j
			n += b2i(!(xs[j] == lit))
		}
	case "lt":
		for _, j := range sel {
			sel[n] = j
			n += b2i(xs[j] < lit)
		}
	case "le":
		for _, j := range sel {
			sel[n] = j
			n += b2i(!(lit < xs[j]))
		}
	case "gt":
		for _, j := range sel {
			sel[n] = j
			n += b2i(lit < xs[j])
		}
	case "ge":
		for _, j := range sel {
			sel[n] = j
			n += b2i(!(xs[j] < lit))
		}
	default:
		panic(fmt.Sprintf("mcdb: unknown UncCmp op %q", c.Op)) // checkQuery rejects it before a kernel runs
	}
	return sel[:n]
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
