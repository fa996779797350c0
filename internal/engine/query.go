package engine

import (
	"context"
	"fmt"
	"strings"

	"modeldata/internal/engine/plan"
)

// Query is a fluent relational query builder over tables. Builder
// methods record operations; Run (or Count/ScalarFloat) executes them.
// Every filter is a plan.Expr (WhereEq, WhereExpr), the form SQL
// produces, so the planner, the zone maps and EXPLAIN all read it.
// Errors are detected eagerly — each method validates its arguments
// against the query's schema as it is called, and the first error is
// latched and returned by Run — so error behavior is identical to the
// historical eager builder.
//
//	q, err := engine.From(people).
//		WhereExpr(plan.Between{Col: "age", Lo: plan.IntLit(0), Hi: plan.IntLit(4)}).
//		Select("pid").
//		Run()
//
// Every builder method returns a new Query and leaves its receiver
// unchanged, which makes saved prefixes branchable:
//
//	base := engine.From(people).WhereEq("state", engine.Str("I"))
//	ids := base.Select("pid")     // does not affect base
//	n, _ := base.Count()          // still the un-projected prefix
//
// Execution: over a table, Run lowers the query's scan/filter/join
// prefix into a logical plan (internal/engine/plan), pushes filters
// below joins, picks a join order by estimated cardinality, and
// executes the optimized plan over the columnar operators; the rest of
// the query, and all of a FromStorage query, replays as written. A
// join emits the left rows in order, each followed by its right
// matches in right order, whichever input it hashes. The planner never
// changes results: its output is byte-identical to the written order,
// and golden_test.go checks both routes against a reference
// interpreter. Explain returns the
// optimized plan without executing it. Each Run builds private
// execution state, so queries and their branches may run concurrently.
//
// A table is executable iff every value has its column's schema type —
// what Insert enforces. A hand-assembled Rows that breaks the rule
// makes Run and Count return an error wrapping ErrMixedColumn.
type Query struct {
	src *Table
	ops []*qop
	err error

	// store, when set by FromStorage, replaces src as the scan source:
	// execution streams the storage's partitions — the columns the
	// operations observe, zone-map pruned by the leading filters, which
	// run on each partition — and replays the remaining operations over
	// the concatenated survivors (see source).
	store Storage
	// ctx, when set by WithContext, flows into storage scans.
	ctx context.Context

	// budget is the hash-footprint budget in bytes of this query's
	// joins and group-bys (0 = never spill); spillDir is where spill
	// files go ("" = the OS temp dir).
	budget   int64
	spillDir string

	// cache, when set by Prepared, memoizes the join-order choice
	// across executions of the same statement.
	cache *Prepared

	// name and schema describe the query's current result shape,
	// maintained eagerly by every builder method.
	name   string
	schema Schema
}

// opKind enumerates recorded operations.
type opKind uint8

const (
	opFilter opKind = iota // plan.Expr filter
	opSelect
	opRename
	opJoin
	opGroupBy
	opOrderBy
	opDistinct
	opLimit
)

// qop is one recorded operation, together with the eagerly computed
// name and schema of the query state after it.
type qop struct {
	kind   opKind
	name   string
	schema Schema

	expr plan.Expr // opFilter

	cols []string // opSelect columns, opGroupBy keys

	oldName, newName string // opRename

	joinT        *Table // opJoin
	joinL, joinR string
	// joinFlat keeps left column names un-prefixed (SQL multi-join
	// naming); the default prefixes both sides, as the historical
	// builder always did.
	joinFlat bool

	aggs []Aggregate // opGroupBy

	col  string // opOrderBy
	desc bool

	n int // opLimit
}

// --- building ---

// From starts a query over t.
func From(t *Table) *Query {
	return &Query{src: t, name: t.Name, schema: t.Schema}
}

// FromStorage starts a query over a storage backend. Execution scans
// the storage's partitions — asking only for the columns the query can
// observe and letting it prune against the query's leading filters —
// and runs the same operators as From, so results are byte-identical to
// a query over the equivalent in-memory table (the golden suite runs
// every pipeline over both).
// Storage queries execute directly: the join-region planner only
// reorders multi-table joins, whose right sides are in-memory tables
// either way.
func FromStorage(st Storage) *Query {
	return &Query{store: st, name: st.StorageName(), schema: st.StorageSchema()}
}

// WithContext attaches ctx to the query's storage scans; it has no
// effect on in-memory queries.
func (q *Query) WithContext(ctx context.Context) *Query {
	nq := *q
	nq.ctx = ctx
	return &nq
}

// WithMemoryBudget bounds the estimated hash-table footprint of this
// query's joins and group-bys to budget bytes; operators over it
// Grace-partition to disk (see spill.go) with byte-identical output.
// budget <= 0 means unlimited: the query never spills.
func (q *Query) WithMemoryBudget(budget int64) *Query {
	nq := *q
	if budget < 0 {
		budget = 0
	}
	nq.budget = budget
	return &nq
}

// WithSpillDir directs this query's spill files to dir instead of the
// OS temp dir.
func (q *Query) WithSpillDir(dir string) *Query {
	nq := *q
	nq.spillDir = dir
	return &nq
}

// push appends op to a copy of q. The full slice expression pins the
// shared prefix's capacity so sibling branches never clobber each
// other's appends.
func (q *Query) push(op *qop) *Query {
	nq := *q
	nq.ops = append(q.ops[:len(q.ops):len(q.ops)], op)
	nq.name, nq.schema = op.name, op.schema
	return &nq
}

// fail latches an error.
func (q *Query) fail(err error) *Query {
	nq := *q
	nq.err = err
	return &nq
}

// WhereEq keeps rows whose column equals v.
func (q *Query) WhereEq(col string, v Value) *Query {
	if q.err != nil {
		return q
	}
	if _, err := q.schema.ColIndex(col); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{
		kind: opFilter,
		expr: plan.Cmp{Op: "=", Col: col, Val: litOfValue(v)},
		name: q.name, schema: q.schema,
	})
}

// WhereExpr keeps rows satisfying the inspectable expression e —
// the fully planner-visible filter form: comparisons, BETWEEN, and
// AND/OR/NOT compositions are pushed below joins and costed.
func (q *Query) WhereExpr(e plan.Expr) *Query {
	if q.err != nil {
		return q
	}
	if err := validateExprCols(e, q.schema); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{kind: opFilter, expr: e, name: q.name, schema: q.schema})
}

// Select projects to the named columns.
func (q *Query) Select(cols ...string) *Query {
	if q.err != nil {
		return q
	}
	schema := make(Schema, len(cols))
	for i, c := range cols {
		j, err := q.schema.ColIndex(c)
		if err != nil {
			return q.fail(err)
		}
		schema[i] = q.schema[j]
	}
	return q.push(&qop{kind: opSelect, cols: cols, name: q.name, schema: schema})
}

// Rename renames a column in the current result.
func (q *Query) Rename(oldName, newName string) *Query {
	if q.err != nil {
		return q
	}
	j, err := q.schema.ColIndex(oldName)
	if err != nil {
		return q.fail(err)
	}
	schema := q.schema.Clone()
	schema[j].Name = newName
	return q.push(&qop{kind: opRename, oldName: oldName, newName: newName, name: q.name, schema: schema})
}

// Join equijoins the current result with other on leftCol = rightCol.
// Output columns are prefixed with the table names on both sides.
func (q *Query) Join(other *Table, leftCol, rightCol string) *Query {
	return q.join(other, leftCol, rightCol, false)
}

// join records an equi-join; flat keeps left names un-prefixed.
func (q *Query) join(other *Table, leftCol, rightCol string, flat bool) *Query {
	if q.err != nil {
		return q
	}
	if _, err := q.schema.ColIndex(leftCol); err != nil {
		return q.fail(fmt.Errorf("join left: %w", err))
	}
	if _, err := other.Schema.ColIndex(rightCol); err != nil {
		return q.fail(fmt.Errorf("join right: %w", err))
	}
	schema := make(Schema, 0, len(q.schema)+len(other.Schema))
	for _, c := range q.schema {
		name := c.Name
		if !flat {
			name = q.name + "." + name
		}
		schema = append(schema, Column{Name: name, Type: c.Type})
	}
	for _, c := range other.Schema {
		schema = append(schema, Column{Name: other.Name + "." + c.Name, Type: c.Type})
	}
	return q.push(&qop{
		kind:  opJoin,
		joinT: other, joinL: leftCol, joinR: rightCol, joinFlat: flat,
		name: q.name + "_" + other.Name, schema: schema,
	})
}

// GroupBy groups by keys and computes aggs.
func (q *Query) GroupBy(keys []string, aggs ...Aggregate) *Query {
	if q.err != nil {
		return q
	}
	schema := make(Schema, 0, len(keys)+len(aggs))
	for _, k := range keys {
		j, err := q.schema.ColIndex(k)
		if err != nil {
			return q.fail(err)
		}
		schema = append(schema, Column{Name: k, Type: q.schema[j].Type})
	}
	for _, a := range aggs {
		var colType Type
		if a.Fn != AggCount {
			j, err := q.schema.ColIndex(a.Col)
			if err != nil {
				return q.fail(err)
			}
			colType = q.schema[j].Type
		}
		name := a.As
		if name == "" {
			name = a.Fn.String() + "_" + a.Col
		}
		typ := TypeFloat
		if a.Fn == AggCount {
			typ = TypeInt
		} else if a.Fn == AggMin || a.Fn == AggMax {
			typ = colType
		}
		schema = append(schema, Column{Name: name, Type: typ})
	}
	name := q.name + "_group"
	// NewTable performs the duplicate-column validation the execution
	// path would, so the error is latched now, not at Run.
	if _, err := NewTable(name, schema); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{kind: opGroupBy, cols: keys, aggs: aggs, name: name, schema: schema})
}

// OrderBy sorts by the column.
func (q *Query) OrderBy(col string, desc bool) *Query {
	if q.err != nil {
		return q
	}
	if _, err := q.schema.ColIndex(col); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{kind: opOrderBy, col: col, desc: desc, name: q.name, schema: q.schema})
}

// Distinct removes duplicate rows.
func (q *Query) Distinct() *Query {
	if q.err != nil {
		return q
	}
	return q.push(&qop{kind: opDistinct, name: q.name, schema: q.schema})
}

// Limit truncates to n rows.
func (q *Query) Limit(n int) *Query {
	if q.err != nil {
		return q
	}
	return q.push(&qop{kind: opLimit, n: n, name: q.name, schema: q.schema})
}

// --- execution ---

// exec runs the recorded operations and returns the final execution
// state. The source is decoded into the one ColumnBlock the executor
// works on; over a table, the planner executes the leading
// scan/filter/join region from its optimized plan; everything else
// (and everything, over a storage or when there is no region to plan)
// replays through the chain as written. wholeRows says the
// caller will read the final state's rows, not merely count them, which
// decides whether a storage scan has to fetch columns no operation
// names.
func (q *Query) exec(wholeRows bool) (*chain, error) {
	ch := &chain{sc: NewScratch(), budget: q.budget, spillDir: q.spillDir}
	start, err := q.source(ch, wholeRows)
	if err != nil {
		return nil, err
	}
	colQueries.Add(1)
	planned := false
	if q.store == nil {
		if start, err = q.planRegion(ch); err != nil {
			return nil, err
		}
		planned = start > 0
	}
	if !planned {
		planDirect.Add(1)
	}
	for _, op := range q.ops[start:] {
		if err := ch.apply(op); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// source decodes the query's scan into ch.b and returns how many of the
// leading operations it has already applied. A table decodes whole,
// through decodeTable, and applies none. A storage is scanned partition
// by partition, and a pass over it costs what the query reads:
//
//   - only the stored columns the operations can observe are asked of
//     the storage (scanCols);
//   - the leading run — the filters whose conjunction is the pruning
//     hint, and the Selects and Renames among them — is applied to each
//     partition as it arrives, so only surviving rows are concatenated;
//   - when the operation after that run joins a table that fits the
//     memory budget, the partitions stream past one hash table of it
//     (joinStream) and are never concatenated at all;
//   - when it is a keyed group-by under a memory budget, the partitions
//     stream into it (groupStream), and once its hash estimate crosses
//     the budget every row is partitioned to disk as it arrives.
//
// All filters run in full, so pruning (which only ever skips partitions
// that cannot contain a matching row) is correctness-neutral. If a
// streamed group-by's spill fails after rows reached disk, the storage
// is scanned again and the group-by runs in memory.
func (q *Query) source(ch *chain, wholeRows bool) (int, error) {
	if q.store == nil {
		var err error
		ch.b, err = decodeTable(q.src)
		return 0, err
	}
	ctx := q.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	req := q.scanRequest(wholeRows)
	var js *joinStream
	var gs *groupStream
	if req.lead < len(q.ops) {
		switch op := q.ops[req.lead]; {
		case op.kind == opJoin:
			var err error
			if js, err = newJoinStream(op, ch); err != nil {
				return 0, err
			}
		case op.kind == opGroupBy && ch.budget > 0 && len(op.cols) > 0:
			gs = &groupStream{op: op, c: ch, total: q.store.NumRows()}
			if sp, ok := q.store.(ScanPlanner); ok {
				// Its estimate projects to the rows the scan decodes,
				// which pruned partitions are not.
				_, _, gs.total = sp.PlanScan(req.cols, req.hint)
			}
		}
	}
	var parts []*ColumnBlock
	sink := func(b *ColumnBlock, stored int) (bool, error) {
		switch {
		case js != nil:
			return false, js.probe(b)
		case gs != nil:
			return gs.add(b, stored)
		}
		if b.sel != nil {
			// A filtered partition is compacted now, so the scan can
			// reuse the vectors it selected from.
			parts = append(parts, b.Dense())
			return false, nil
		}
		parts = append(parts, b)
		return true, nil
	}
	name := q.store.StorageName()
	for {
		if err := q.scanEach(ctx, ch, req, sink); err != nil {
			if gs != nil {
				gs.close()
			}
			return 0, err
		}
		var err error
		if gs != nil {
			if ch.b, err = gs.result(name); gs.spillErr == nil {
				return req.lead + 1, err
			}
			// The rows that reached the spill file went with it.
			spillFallbacks.Add(1)
			gs = &groupStream{op: gs.op, c: ch, inMem: true}
			continue
		}
		if js != nil {
			ch.b, err = js.result()
			return req.lead + 1, err
		}
		ch.b, err = concatBlocks(name, parts[0].Schema, parts)
		return req.lead, err
	}
}

// scanReq is what a pass over a storage asks of it.
type scanReq struct {
	cols   []string  // the projection; nil = every column
	schema Schema    // the schema partitions come back with
	hint   plan.Expr // the pruning hint
	lead   int       // the leading operations applied to each partition
}

// scanRequest is the scan source makes, and EXPLAIN predicts: the
// stored columns the operations can observe, and the leading run with
// its conjunction as the hint.
func (q *Query) scanRequest(wholeRows bool) scanReq {
	need := map[string]bool{} // a count observes no column of the result
	if wholeRows {
		need = nil // its rows observe all of them
	}
	cols, schema := scanCols(q.store.StorageSchema(), neededBefore(q.ops, need))
	return scanReq{cols: cols, schema: schema, hint: q.leadingFilterExpr(), lead: q.leadingRun()}
}

// scanEach streams the storage's partitions to sink, each with the
// leading run applied, together with its row count as stored. sink
// reports whether it kept the partition (or anything sharing its
// vectors); one it did not keep is released to the scan, which may
// decode the next partition into its vectors. When every partition is
// pruned, sink gets one empty partition, which carries the schema
// through the leading run.
func (q *Query) scanEach(ctx context.Context, ch *chain, req scanReq, sink func(b *ColumnBlock, stored int) (bool, error)) error {
	it, err := q.store.ScanPartitions(ctx, req.cols, req.hint)
	if err != nil {
		return err
	}
	each := func(b *ColumnBlock) (bool, error) {
		stored := b.Len()
		ch.b = b
		for _, op := range q.ops[:req.lead] {
			if err := ch.apply(op); err != nil {
				return false, err
			}
		}
		return sink(ch.b, stored)
	}
	scanned := 0
	for {
		b, err := it.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		scanned++
		kept, err := each(b)
		if err != nil {
			return err
		}
		if !kept {
			it.Release(b)
		}
	}
	if scanned > 0 {
		return nil
	}
	empty, err := concatBlocks(q.store.StorageName(), req.schema, nil)
	if err != nil {
		return err
	}
	_, err = each(empty)
	return err
}

// scanCols turns the needed-column set of a scan into the projection
// handed to the storage and the schema its partitions will carry:
// stored names in stored order, nil (everything) when need is nil. A
// query that observes no column at all still has rows to count, so it
// reads the first.
func scanCols(stored Schema, need map[string]bool) ([]string, Schema) {
	if need == nil {
		return nil, stored
	}
	cols, schema := []string{}, Schema{}
	for _, c := range stored {
		if need[strings.ToLower(c.Name)] {
			cols, schema = append(cols, c.Name), append(schema, c)
		}
	}
	if len(cols) == 0 {
		return []string{stored[0].Name}, stored[:1]
	}
	return cols, schema
}

// decodeTable is the one site where executing queries decode a table
// (the source, join right sides, planned scans). A table breaking the
// executable-table rule refuses the query: the error wraps
// ErrMixedColumn and engine.colfallback counts the refusal.
func decodeTable(t *Table) (*ColumnBlock, error) {
	b, err := FromTable(t)
	if err != nil {
		colFallbacks.Add(1)
		return nil, fmt.Errorf("engine: table %q is not executable: %w", t.Name, err)
	}
	return b, nil
}

// leadingFilterExpr conjoins the query's leading run of inspectable
// filters into one pruning hint, with every column name mapped back to
// its stored (scan) name, which is all zone maps can judge. The
// leading run extends through Select and Rename — both are pure name
// reshaping, so a filter written after them still provably restricts
// scan columns — and stops at the first operation of any other kind:
// a join, group-by, distinct, sort or limit.
// Historically the run stopped at the first non-filter op, so a
// leading Select or Rename silently disabled zone-map pruning for every
// filter written after it.
func (q *Query) leadingFilterExpr() plan.Expr {
	var e plan.Expr
	// toStored maps the current (lowercased) column names back to
	// stored names; nil means the identity (no reshaping seen yet).
	var toStored map[string]string
	stored := func(name string) string {
		if toStored == nil {
			return name
		}
		if s, ok := toStored[strings.ToLower(name)]; ok {
			return s
		}
		return name
	}
	for _, op := range q.ops[:q.leadingRun()] {
		switch op.kind {
		case opFilter:
			fe := op.expr
			if toStored != nil {
				fe = plan.RenameCols(fe, stored)
			}
			if e == nil {
				e = fe
			} else {
				e = plan.And{L: e, R: fe}
			}
		case opSelect:
			nm := make(map[string]string, len(op.cols))
			for _, c := range op.cols {
				nm[strings.ToLower(c)] = stored(c)
			}
			toStored = nm
		case opRename:
			nm := make(map[string]string, len(toStored)+1)
			for k, v := range toStored {
				nm[k] = v
			}
			old := stored(op.oldName)
			delete(nm, strings.ToLower(op.oldName))
			nm[strings.ToLower(op.newName)] = old
			toStored = nm
		}
	}
	return e
}

// leadingRun is the number of operations in the leading run
// leadingFilterExpr describes: filters, Selects and Renames, up to the
// first operation of any other kind. Each acts on a row by itself, so
// applying the run to every partition of a scan and concatenating
// equals concatenating and then applying it.
func (q *Query) leadingRun() int {
	for i, op := range q.ops {
		if op.kind != opFilter && op.kind != opSelect && op.kind != opRename {
			return i
		}
	}
	return len(q.ops)
}

// Run returns the result table or the first error encountered.
func (q *Query) Run() (*Table, error) {
	if q.err != nil {
		return nil, q.err
	}
	ch, err := q.exec(true)
	if err != nil {
		return nil, err
	}
	return ch.b.ToTable(), nil
}

// MustRun returns the result table, panicking on error; for tests and
// examples with statically known schemas.
func (q *Query) MustRun() *Table {
	t, err := q.Run()
	if err != nil {
		panic(err)
	}
	return t
}

// Count runs the query and returns its row count.
func (q *Query) Count() (int, error) {
	if q.err != nil {
		return 0, q.err
	}
	ch, err := q.exec(false)
	if err != nil {
		return 0, err
	}
	return ch.b.Len(), nil
}

// ScalarFloat runs the query, which must produce exactly one row and one
// numeric column, and returns that value, as Database.QueryScalar does
// for SQL.
func (q *Query) ScalarFloat() (float64, error) {
	t, err := q.Run()
	if err != nil {
		return 0, err
	}
	return scalarOf(t)
}

// --- the chain: direct (written-order) execution ---

// chain is the executor: one operation at a time over one ColumnBlock.
// A storage-backed query runs entirely here, and the planned path hands
// its region output to a chain for the remaining operations, so every
// query ends in this executor.
type chain struct {
	b  *ColumnBlock // the current state
	sc *Scratch     // shared per-execution operator scratch

	// budget and spillDir are the query's spill policy, applied by the
	// hash join and group-by operators (0 = never spill).
	budget   int64
	spillDir string
	// openSpill creates a group-by's spill file under spillDir; nil
	// means openSpillFile. Tests substitute one that fails.
	openSpill func(dir string) (spillFile, error)
}

// apply executes one recorded operation against the current state.
func (c *chain) apply(op *qop) error {
	b := c.b
	var nb *ColumnBlock
	var err error
	switch op.kind {
	case opFilter:
		nb, err = filterBlock(b, op.expr)

	case opSelect:
		nb, err = b.Project(op.cols...)

	case opRename:
		nb, err = b.Rename(op.oldName, op.newName)

	case opJoin:
		var rb *ColumnBlock
		if rb, err = decodeTable(op.joinT); err != nil {
			return err
		}
		nb, err = b.equiJoinBudget(rb, op.joinL, op.joinR, c.sc, c.budget, c.spillDir)
		if err != nil {
			return err
		}
		// The join's output names are overwritten with the eagerly
		// computed schema: a no-op for the default (both-sides-prefixed)
		// naming, and the mechanism that implements flat SQL naming.
		// Column order is left++right, so the overwrite is positionally
		// safe.
		nb.Name = op.name
		nb.Schema = op.schema.Clone()

	case opGroupBy:
		nb, err = c.groupBy(op)

	case opOrderBy:
		nb, err = b.OrderBy(op.col, op.desc)

	case opDistinct:
		nb = b.Distinct(c.sc)

	case opLimit:
		nb = b.Limit(op.n)

	default:
		return fmt.Errorf("engine: unknown query op %d", op.kind)
	}
	if err != nil {
		return err
	}
	c.b = nb
	return nil
}

// groupBy aggregates the state. A keyed group-by under a memory budget
// is a groupStream whose one partition is the state; if its spill fails,
// the state is still here to group in memory.
func (c *chain) groupBy(op *qop) (*ColumnBlock, error) {
	if c.budget > 0 && len(op.cols) > 0 {
		s := &groupStream{op: op, c: c, total: int64(c.b.Len())}
		if _, err := s.add(c.b, c.b.Len()); err != nil {
			return nil, err
		}
		if out, err := s.result(c.b.Name); s.spillErr == nil {
			return out, err
		}
		spillFallbacks.Add(1)
	}
	return c.b.GroupBy(op.cols, op.aggs, c.sc)
}

// filterBlock applies a filter expression: an equality through the
// typed WhereEq, anything else through the compiled predicate.
func filterBlock(b *ColumnBlock, e plan.Expr) (*ColumnBlock, error) {
	if c, ok := e.(plan.Cmp); ok && c.Op == "=" {
		return b.WhereEq(c.Col, valOfLit(c.Val))
	}
	pred, err := compileExprBlock(e, b)
	if err != nil {
		return nil, err
	}
	return b.whereFunc(pred), nil
}
