package engine

// Deferred execution: a prepared statement bound to a database in which
// some float columns of one table are not known yet. The join region
// runs once over everything that is known; each later call supplies the
// missing columns as vectors and pays only for what depends on them.
// This is MCDB's "the query plan is executed only once" for a stochastic
// table whose uncertain attributes change between Monte Carlo
// iterations while its keys and the other tables do not.
//
// Why that reproduces the statement's own answer over the completed
// table, bit for bit. Every join emits in left order and a filter keeps
// order, so a join region's output is its surviving row combinations in
// scan order whatever runs where (see planexec.go). A single-scan
// conjunct is a pure restriction, so running it after the joins — which
// is all deferring it does — selects the same rows in the same order.
// The operations after the region then see the same block they would
// have seen.

import (
	"fmt"
	"slices"
	"strings"

	"modeldata/internal/engine/plan"
)

// Deferred is a statement bound by Prepared.Defer. Run executes it once;
// from then on it is read-only, and Scalar is safe for concurrent use.
type Deferred struct {
	q     *Query
	table *Table
	cols  []int   // the deferred columns, as indexes into table.Schema
	reg   *region // nil when the statement has no join: table is the source
	scan  int     // table's scan in reg

	// Set by Run.
	base  *ColumnBlock // the finished join (reg == nil: the decoded source)
	rid   []int64      // base's physical row → table's row; nil is the identity
	slots []int        // position of cols[k] in base, -1 when nothing reads it
}

// Defer binds the statement to db for execution with part of one table
// deferred. deferrable lists, per table whose contents change between
// executions, the columns that change; a table mapped to no columns
// changes in ways that cannot be deferred. Defer reads no row: the
// tables may be filled in until Run is called.
//
// It returns nil when the statement cannot run this way and must be
// executed whole against each complete database: it reads none of the
// deferrable tables, or more than one, or one twice; a deferred column
// is not a float column or is a join key; or the statement does not
// lower to one join region (a storage-backed FROM). An error means the
// statement cannot run at all — it does not bind to db, or its result
// can never be one numeric cell.
func (p *Prepared) Defer(db *Database, deferrable map[*Table][]int) (*Deferred, error) {
	q, err := p.Query(db)
	if err != nil {
		return nil, err
	}
	if len(q.schema) != 1 {
		return nil, sqlErrf("scalar query returns %d columns", len(q.schema))
	}
	if t := q.schema[0].Type; t != TypeInt && t != TypeFloat {
		return nil, sqlErrf("scalar query returns %s", t)
	}
	if q.store != nil {
		return nil, nil
	}
	scans := []*Table{q.src}
	for _, op := range q.ops {
		if op.kind == opJoin {
			scans = append(scans, op.joinT)
		}
	}
	d := &Deferred{q: q, scan: -1}
	for s, t := range scans {
		if _, ok := deferrable[t]; !ok {
			continue
		}
		if d.scan >= 0 {
			return nil, nil
		}
		d.scan, d.table, d.cols = s, t, deferrable[t]
	}
	if d.scan < 0 || len(d.cols) == 0 {
		return nil, nil
	}
	for _, c := range d.cols {
		if c < 0 || c >= len(d.table.Schema) || d.table.Schema[c].Type != TypeFloat {
			return nil, nil
		}
	}
	if len(scans) == 1 {
		return d, nil
	}
	deferred := func(bare string) bool {
		j, err := d.table.Schema.ColIndex(bare)
		return err == nil && slices.Contains(d.cols, j)
	}
	reg := q.lowerRegion()
	if reg == nil || len(reg.scans) != len(scans) {
		return nil, nil
	}
	for j, jn := range reg.joins {
		if jn.leftScan == d.scan && deferred(jn.leftCol) || j+1 == d.scan && deferred(jn.rightCol) {
			return nil, nil
		}
	}
	// A pushed conjunct that names a deferred column cannot run below
	// the joins any more; it runs after them, under its exit names.
	exit := func(bare string) string {
		for _, c := range reg.cols {
			if c.scan == d.scan && strings.EqualFold(c.bare, bare) {
				return c.name
			}
		}
		return bare
	}
	pushed := reg.filters[:0:0]
	var post []plan.Expr
	for _, f := range reg.filters {
		if f.scan != d.scan || !slices.ContainsFunc(plan.Columns(f.pred), deferred) {
			pushed = append(pushed, f)
			continue
		}
		post = append(post, plan.RenameCols(f.pred, exit))
	}
	reg.filters, reg.post = pushed, append(post, reg.post...)
	d.reg = reg
	return d, nil
}

// Table returns the table whose columns the statement defers.
func (d *Deferred) Table() *Table { return d.table }

// Run executes the join region over the bound tables as they now stand
// and returns the statement's value over them, the deferred table's
// current contents included. It must return before the first Scalar.
func (d *Deferred) Run() (float64, error) {
	q := d.q
	ch := &chain{sc: NewScratch(), budget: q.budget, spillDir: q.spillDir}
	if _, err := q.source(ch, true); err != nil {
		return 0, err
	}
	colQueries.Add(1)
	if d.reg == nil {
		planDirect.Add(1)
		d.base, d.slots = ch.b, d.cols
		return d.finish(d.base)
	}
	var err error
	if d.base, d.rid, err = q.joinRegion(ch, d.reg, d.scan); err != nil {
		return 0, err
	}
	// The block holds the retained columns of scan 0, then of scan 1, …
	ret := q.retainedCols(d.reg)
	first := 0
	for _, r := range ret[:d.scan] {
		first += len(r)
	}
	d.slots = make([]int, len(d.cols))
	for k, c := range d.cols {
		d.slots[k] = -1
		if i := slices.IndexFunc(ret[d.scan], func(rc retCol) bool { return rc.col == c }); i >= 0 {
			d.slots[k] = first + i
		}
	}
	return d.finish(d.base)
}

// Scalar returns the statement's value with the deferred columns
// replaced by vecs: vecs[k] is column cols[k] of the table given to
// Defer, one value per row of it. The vectors are read, never written
// or kept.
func (d *Deferred) Scalar(vecs [][]float64) (float64, error) {
	if len(vecs) != len(d.cols) {
		return 0, fmt.Errorf("%w: got %d deferred vectors, want %d", ErrArity, len(vecs), len(d.cols))
	}
	b := d.base
	for k, slot := range d.slots {
		v := vecs[k]
		if len(v) != d.table.Len() {
			return 0, fmt.Errorf("%w: deferred vector %d has %d rows, table %q has %d",
				ErrArity, k, len(v), d.table.Name, d.table.Len())
		}
		if slot < 0 {
			continue
		}
		if d.rid != nil {
			g := make([]float64, len(d.rid))
			for p, r := range d.rid {
				g[p] = v[r]
			}
			v = g
		}
		var err error
		if b, err = b.WithColumn(slot, v); err != nil {
			return 0, err
		}
	}
	return d.finish(b)
}

// finish runs what follows the joins — the residual conjuncts, then the
// operations after the region — over one completed block.
func (d *Deferred) finish(b *ColumnBlock) (float64, error) {
	q := d.q
	ch := &chain{b: b, sc: NewScratch(), budget: q.budget, spillDir: q.spillDir}
	tail := q.ops
	if d.reg != nil {
		var err error
		if ch.b, err = postFilters(d.reg.post, b); err != nil {
			return 0, err
		}
		tail = q.ops[d.reg.end:]
	}
	for _, op := range tail {
		if err := ch.apply(op); err != nil {
			return 0, err
		}
	}
	return scalarOf(ch.b.ToTable())
}
