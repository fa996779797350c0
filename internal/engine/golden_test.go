package engine

// Golden-equivalence suite, the engine's one randomized oracle: every
// pipeline is checked against a small reference interpreter over plain
// rows (nested-loop join, map-of-slices group-by, sort.SliceStable) —
// same schema, same row order, same Value payload bits, by DiffTables —
// on randomized inputs that cover the awkward corners of the key
// encoding (NaN, -0, int64s beyond float64 precision, strings
// containing the old separator byte, empty results). Every pipeline
// runs at every point of the configuration lattice production runs:
// {From(table), which the planner plans; FromStorage over the table in
// 1–8 partitions; FromStorage over a colstore store} × {budget
// unlimited, 1 byte}.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"modeldata/internal/engine/plan"
	"modeldata/internal/obs"
	"modeldata/internal/rng"
)

// requireSameTable fails the test unless DiffTables finds got
// identical to want.
func requireSameTable(t testing.TB, label string, want, got *Table) {
	t.Helper()
	if err := DiffTables(want, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// randomValue draws a Value of the given type, biased toward collisions
// (small domains) and toward the encoder's corner cases.
func randomValue(r *rng.Stream, typ Type) Value {
	switch typ {
	case TypeInt:
		switch r.Intn(8) {
		case 0:
			// Beyond float64 precision: exercises the keyTagBig escape.
			return Int((int64(1) << 53) + 1 + int64(r.Intn(5)))
		case 1:
			return Int(-((int64(1) << 53) + 3 + int64(r.Intn(5))))
		default:
			return Int(int64(r.Intn(7)) - 3)
		}
	case TypeFloat:
		switch r.Intn(10) {
		case 0:
			return Float(math.NaN())
		case 1:
			return Float(math.Copysign(0, -1))
		case 2:
			return Float(math.Inf(1 - 2*r.Intn(2)))
		default:
			return Float(float64(r.Intn(7)) - 3)
		}
	case TypeString:
		// Includes the empty string and strings containing the old
		// "\x00" separator byte, which the length-prefixed encoding
		// must keep distinct from column boundaries.
		choices := []string{"", "a", "b", "ab", "a\x00", "\x00a", "a\x00b", "xyz"}
		return Str(choices[r.Intn(len(choices))])
	default:
		return Bool(r.Intn(2) == 0)
	}
}

// randomTable builds a table of n rows over a fixed mixed schema.
func randomTable(r *rng.Stream, name string, n int) *Table {
	schema := Schema{
		{Name: "id", Type: TypeInt},
		{Name: "x", Type: TypeFloat},
		{Name: "tag", Type: TypeString},
		{Name: "flag", Type: TypeBool},
	}
	t := &Table{Name: name, Schema: schema}
	for i := 0; i < n; i++ {
		row := make(Row, len(schema))
		for j, c := range schema {
			row[j] = randomValue(r, c.Type)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// --- the reference interpreter ---
//
// Each ref* function is the specification of one operator, written for
// clarity over []Row. Keys compare by the binary key encoding, whose
// equality coincides with Value.Equal.

func refCol(t *Table, name string) int {
	j, err := t.ColIndex(name)
	if err != nil {
		panic(err)
	}
	return j
}

func refCols(t *Table, names []string) []int {
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = refCol(t, n)
	}
	return idx
}

func refFilter(t *Table, keep func(Row) bool) *Table {
	out := &Table{Name: t.Name, Schema: t.Schema.Clone()}
	for _, r := range t.Rows {
		if keep(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

func refProject(t *Table, cols []string) *Table {
	idx := refCols(t, cols)
	out := &Table{Name: t.Name}
	for _, j := range idx {
		out.Schema = append(out.Schema, t.Schema[j])
	}
	for _, r := range t.Rows {
		nr := make(Row, len(idx))
		for i, j := range idx {
			nr[i] = r[j]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

func refRename(t *Table, oldName, newName string) *Table {
	out := &Table{Name: t.Name, Schema: t.Schema.Clone(), Rows: t.Rows}
	out.Schema[refCol(t, oldName)].Name = newName
	return out
}

// refJoin is a nested-loop equi-join: the left rows in order, each
// followed by its right matches in right order.
func refJoin(l, r *Table, lc, rc string) *Table {
	li, ri := refCol(l, lc), refCol(r, rc)
	out := &Table{Name: l.Name + "_" + r.Name}
	for _, c := range l.Schema {
		out.Schema = append(out.Schema, Column{Name: l.Name + "." + c.Name, Type: c.Type})
	}
	for _, c := range r.Schema {
		out.Schema = append(out.Schema, Column{Name: r.Name + "." + c.Name, Type: c.Type})
	}
	for _, lr := range l.Rows {
		for _, rr := range r.Rows {
			if string(lr[li].AppendKey(nil)) == string(rr[ri].AppendKey(nil)) {
				out.Rows = append(out.Rows, append(lr.Clone(), rr...))
			}
		}
	}
	return out
}

// refGroupBy groups in first-appearance order; with no keys there is
// one global group even over empty input.
func refGroupBy(t *Table, keys []string, aggs []Aggregate) *Table {
	keyIdx := refCols(t, keys)
	groups := map[string][]Row{}
	var order []string
	for _, r := range t.Rows {
		k := string(appendRowKey(nil, r, keyIdx))
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	if len(keys) == 0 && len(order) == 0 {
		order = []string{""}
	}
	out := &Table{Name: t.Name + "_group"}
	for i, j := range keyIdx {
		out.Schema = append(out.Schema, Column{Name: keys[i], Type: t.Schema[j].Type})
	}
	for _, a := range aggs {
		typ := TypeFloat
		if a.Fn == AggCount {
			typ = TypeInt
		} else if a.Fn == AggMin || a.Fn == AggMax {
			typ = t.Schema[refCol(t, a.Col)].Type
		}
		out.Schema = append(out.Schema, Column{Name: a.As, Type: typ})
	}
	for _, k := range order {
		rows := groups[k]
		var row Row
		for _, j := range keyIdx {
			row = append(row, rows[0][j])
		}
		for ai, a := range aggs {
			row = append(row, refAggregate(t, a, rows, out.Schema[len(keys)+ai].Type))
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// refAggregate folds one group's rows in order. SUM and AVG are 0 over
// non-numeric columns and over no rows; MIN and MAX keep the first
// extreme, and over no rows are the zero of the column's type.
func refAggregate(t *Table, a Aggregate, rows []Row, typ Type) Value {
	if a.Fn == AggCount {
		return Int(int64(len(rows)))
	}
	j := refCol(t, a.Col)
	switch a.Fn {
	case AggSum, AggAvg:
		sum := 0.0
		for _, r := range rows {
			if r[j].IsNumeric() {
				sum += r[j].AsFloat()
			}
		}
		if a.Fn == AggAvg && len(rows) > 0 {
			sum /= float64(len(rows))
		}
		return Float(sum)
	}
	if len(rows) == 0 {
		return Value{typ: typ}
	}
	best := rows[0][j]
	for _, r := range rows[1:] {
		if (a.Fn == AggMin && r[j].Less(best)) || (a.Fn == AggMax && best.Less(r[j])) {
			best = r[j]
		}
	}
	return best
}

func refDistinct(t *Table) *Table {
	all := make([]int, len(t.Schema))
	for j := range all {
		all[j] = j
	}
	seen := map[string]bool{}
	return refFilter(t, func(r Row) bool {
		k := string(appendRowKey(nil, r, all))
		dup := seen[k]
		seen[k] = true
		return !dup
	})
}

func refOrderBy(t *Table, col string, desc bool) *Table {
	j := refCol(t, col)
	out := &Table{Name: t.Name, Schema: t.Schema.Clone(), Rows: append([]Row(nil), t.Rows...)}
	sort.SliceStable(out.Rows, func(a, b int) bool {
		if desc {
			a, b = b, a
		}
		return out.Rows[a][j].Less(out.Rows[b][j])
	})
	return out
}

func refLimit(t *Table, n int) *Table {
	if n > len(t.Rows) {
		n = len(t.Rows)
	}
	return &Table{Name: t.Name, Schema: t.Schema.Clone(), Rows: t.Rows[:n]}
}

// --- pipelines: one step = the builder call and its specification ---

// step is one pipeline operation.
type step struct {
	label string
	q     func(*Query) *Query
	ref   func(*Table) *Table
}

// stKeep is a filter step whose meaning is keep(value of col).
func stKeep(label, col string, q func(*Query) *Query, keep func(Value) bool) step {
	return step{label: label, q: q, ref: func(t *Table) *Table {
		j := refCol(t, col)
		return refFilter(t, func(r Row) bool { return keep(r[j]) })
	}}
}

func stWhereEq(col string, v Value) step {
	return stKeep(fmt.Sprintf("WhereEq(%s,%v)", col, v), col,
		func(q *Query) *Query { return q.WhereEq(col, v) },
		func(x Value) bool { return x.Equal(v) })
}

func stWhereExpr(e plan.Expr, col string, keep func(Value) bool) step {
	return stKeep("WhereExpr("+e.String()+")", col, func(q *Query) *Query { return q.WhereExpr(e) }, keep)
}

// stCmp keeps the rows whose col compares to lit as op says, by
// cmpMeans.
func stCmp(col, op string, lit Value) step {
	return stWhereExpr(plan.Cmp{Op: op, Col: col, Val: litOfValue(lit)}, col,
		func(v Value) bool { return cmpMeans[op](v, lit) })
}

// stBetween keeps the rows with lo <= col <= hi, which is !v.Less(lo)
// && !hi.Less(v): a NaN row is kept whatever the bounds.
func stBetween(col string, lo, hi Value) step {
	return stWhereExpr(plan.Between{Col: col, Lo: litOfValue(lo), Hi: litOfValue(hi)}, col,
		func(v Value) bool { return !v.Less(lo) && !hi.Less(v) })
}

func stSelect(cols ...string) step {
	return step{fmt.Sprintf("Select%v", cols),
		func(q *Query) *Query { return q.Select(cols...) },
		func(t *Table) *Table { return refProject(t, cols) }}
}

func stRename(oldName, newName string) step {
	return step{"Rename(" + oldName + "," + newName + ")",
		func(q *Query) *Query { return q.Rename(oldName, newName) },
		func(t *Table) *Table { return refRename(t, oldName, newName) }}
}

func stJoin(right *Table, lc, rc string) step {
	return step{"Join(" + right.Name + "," + lc + "," + rc + ")",
		func(q *Query) *Query { return q.Join(right, lc, rc) },
		func(t *Table) *Table { return refJoin(t, right, lc, rc) }}
}

func stGroupBy(keys []string, aggs ...Aggregate) step {
	return step{fmt.Sprintf("GroupBy(%v,%v)", keys, aggs),
		func(q *Query) *Query { return q.GroupBy(keys, aggs...) },
		func(t *Table) *Table { return refGroupBy(t, keys, aggs) }}
}

func stDistinct() step { return step{"Distinct", (*Query).Distinct, refDistinct} }

func stOrderBy(col string, desc bool) step {
	return step{fmt.Sprintf("OrderBy(%s,%v)", col, desc),
		func(q *Query) *Query { return q.OrderBy(col, desc) },
		func(t *Table) *Table { return refOrderBy(t, col, desc) }}
}

func stLimit(n int) step {
	return step{fmt.Sprintf("Limit(%d)", n),
		func(q *Query) *Query { return q.Limit(n) },
		func(t *Table) *Table { return refLimit(t, n) }}
}

// --- the configuration lattice ---

// source is one of the lattice's ways to scan a pipeline's input: the
// table itself (st nil), which the planner plans, or a storage over it,
// which runs as written.
type source struct {
	label string
	st    *chunked
}

func (s source) from(tbl *Table) *Query {
	if s.st == nil {
		return From(tbl)
	}
	return FromStorage(s.st)
}

// lattice is what a source table's pipelines run with: the three
// sources over it and a spill directory.
type lattice struct {
	sources  []source
	spillDir string
}

// lattices holds each live source table's lattice, so that the
// pipelines checked over one table share one colstore store.
var lattices = map[*Table]*lattice{}

// latticeOf returns tbl's lattice: From(tbl), FromStorage over tbl cut
// into 1–8 partitions, and FromStorage over a colstore store of 1–64
// rows per segment and at most 16 segments (a segment is a file).
func latticeOf(t *testing.T, r *rng.Stream, tbl *Table) *lattice {
	if l, ok := lattices[tbl]; ok {
		return l
	}
	parts, segRows := 1+r.Intn(8), max(1+r.Intn(64), (tbl.Len()+15)/16)
	l := &lattice{spillDir: t.TempDir(), sources: []source{
		{"From", nil},
		{fmt.Sprintf("%d partitions", parts), &chunked{Storage: tbl, n: max(1, (tbl.Len()+parts-1)/parts)}},
		{fmt.Sprintf("colstore %d rows/segment", segRows), &chunked{Storage: StoreOf(t, tbl, segRows)}},
	}}
	lattices[tbl] = l
	t.Cleanup(func() { delete(lattices, tbl) })
	return l
}

// blocksPruned is the count of blocks colstore's zone maps skip,
// colstore.MetricBlocksPruned: a test of this package cannot import
// colstore, which imports it.
var blocksPruned = obs.Default().Counter("colstore.blocks_pruned")

// latticeWork tallies, across checkPipeline calls, the evidence that
// the storage points did the work they are in the lattice for.
var latticeWork struct {
	spilled        int // 1-byte-budget runs that spilled partitions
	streamedJoins  int // partitioned scans a join consumed as they came
	streamedGroups int // and a budgeted group-by did
}

// checkPipeline is the one equivalence table: it runs steps over src
// through the reference interpreter once and through the engine at
// every point of the configuration lattice, requiring identical bytes
// and counts everywhere, and scans that hand back only the partition
// they handed out last.
func checkPipeline(t *testing.T, r *rng.Stream, src *Table, steps ...step) {
	t.Helper()
	want, label := src, src.Name
	for _, st := range steps {
		want, label = st.ref(want), label+"."+st.label
	}
	l := latticeOf(t, r, src)
	for _, s := range l.sources {
		for _, budget := range []int64{0, 1} {
			cfg := fmt.Sprintf("%s [%s, budget %d]", label, s.label, budget)
			q := s.from(src)
			for _, st := range steps {
				q = st.q(q)
			}
			q = q.WithMemoryBudget(budget).WithSpillDir(l.spillDir)
			if n, err := q.Count(); err != nil || n != want.Len() {
				t.Fatalf("%s: Count = %d, %v; want %d", cfg, n, err, want.Len())
			}
			spills := spillPartitions.Value()
			got, err := q.Run()
			if err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			requireSameTable(t, cfg, want, got)
			if budget > 0 && spillPartitions.Value() > spills {
				latticeWork.spilled++
			}
			if s.st != nil {
				tallyScan(t, cfg, q, s.st)
			}
		}
	}
}

// tallyScan checks the scan q's Run made of st and adds what it did to
// latticeWork.
func tallyScan(t *testing.T, cfg string, q *Query, st *chunked) {
	t.Helper()
	c := st.scans[len(st.scans)-1]
	if c.stray != 0 {
		t.Fatalf("%s: %d releases of a partition other than the last handed out", cfg, c.stray)
	}
	if st.n == 0 {
		return
	}
	if lead := q.leadingRun(); lead < len(q.ops) && c.released > 0 {
		switch op := q.ops[lead]; {
		case op.kind == opJoin && q.budget == 0:
			latticeWork.streamedJoins++
		case op.kind == opGroupBy && q.budget > 0 && len(op.cols) > 0:
			latticeWork.streamedGroups++
		}
	}
}

// TestQueryRowFallback: no point of the lattice has a row route to fall
// back to — a table breaking the executable-table rule is refused from
// either kind of source at either budget (metrics_test.go pins the
// refusal itself). A colstore store cannot hold such a table.
func TestQueryRowFallback(t *testing.T) {
	for _, s := range []source{{"From", nil}, {"partitions", &chunked{Storage: mixedTable(), n: 2}}} {
		for _, budget := range []int64{0, 1} {
			q := s.from(mixedTable()).WithMemoryBudget(budget).WithSpillDir(t.TempDir()).
				WhereExpr(plan.Cmp{Op: ">", Col: "x", Val: plan.FloatLit(0)}).
				GroupBy([]string{"id"}, Aggregate{Fn: AggCount, As: "n"})
			requireRefused(t, fmt.Sprintf("%s budget %d", s.label, budget), func() error { _, err := q.Run(); return err })
		}
	}
}

// --- focused single-operator cases ---

var goldenCols = []string{"id", "x", "tag", "flag"}

// mustBlock decodes t, failing the test on error (golden tables are
// always strictly typed).
func mustBlock(t *testing.T, tbl *Table) *ColumnBlock {
	t.Helper()
	b, err := FromTable(tbl)
	if err != nil {
		t.Fatalf("FromTable(%s): %v", tbl.Name, err)
	}
	return b
}

func TestGoldenRoundTrip(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 20; trial++ {
		tbl := randomTable(r.Split(), "rt", r.Intn(40))
		requireSameTable(t, "round-trip", tbl, mustBlock(t, tbl).ToTable())
	}
}

func TestGoldenWhere(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 10; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "w", tr.Intn(60))
		probe := randomValue(tr, Type(tr.Intn(4)))
		for _, col := range goldenCols {
			checkPipeline(t, tr, tbl, stWhereEq(col, probe))
			checkPipeline(t, tr, tbl, randomExprStep(tr, tbl, col))
		}
		// Every operator over the columns zone maps judge, whose
		// verdicts differ per operator once a segment holds a NaN.
		for _, col := range []string{"id", "x"} {
			for _, op := range cmpOps {
				checkPipeline(t, tr, tbl, stCmp(col, op, randomValue(tr, tbl.Schema[refCol(tbl, col)].Type)))
			}
			// A literal of the other numeric type, and ±0 bounds.
			cut := Float(float64(tr.Intn(5)) - 2)
			checkPipeline(t, tr, tbl, stCmp(col, "<", cut))
			checkPipeline(t, tr, tbl, stBetween(col, Float(math.Copysign(0, -1)), Int(int64(tr.Intn(3)))))
			checkPipeline(t, tr, tbl, stBetween(col, cut, Float(0)))
		}
		checkPipeline(t, tr, tbl, exprStep(tr, tbl, "tag", shapeOr))
		checkPipeline(t, tr, tbl, exprStep(tr, tbl, "tag", shapeNot))
	}
}

func TestGoldenProjectRenameLimit(t *testing.T) {
	r := rng.New(43)
	for trial := 0; trial < 10; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "p", tr.Intn(40))
		checkPipeline(t, tr, tbl, stSelect("tag", "id"))
		checkPipeline(t, tr, tbl, stRename("x", "y"))
		checkPipeline(t, tr, tbl, stLimit(tr.Intn(50)))
	}
}

func TestGoldenEquiJoin(t *testing.T) {
	r := rng.New(44)
	for trial := 0; trial < 2; trial++ {
		tr := r.Split()
		n, m := tr.Intn(50), tr.Intn(50)
		if trial == 0 {
			m = n // the build-side tie
		}
		l, rt := randomTable(tr, "l", n), randomTable(tr, "r", m)
		for _, lc := range goldenCols {
			for _, rc := range goldenCols {
				checkPipeline(t, tr, l, stJoin(rt, lc, rc))
			}
		}
	}
}

func TestGoldenGroupBy(t *testing.T) {
	r := rng.New(45)
	aggSets := [][]Aggregate{
		{{Fn: AggCount, As: "n"}},
		{{Fn: AggSum, Col: "x", As: "sx"}, {Fn: AggAvg, Col: "id", As: "ai"}},
		{{Fn: AggMin, Col: "x", As: "mnx"}, {Fn: AggMax, Col: "x", As: "mxx"}},
		{{Fn: AggMin, Col: "tag", As: "mnt"}, {Fn: AggMax, Col: "flag", As: "mxf"}},
		{{Fn: AggCount, As: "n"}, {Fn: AggSum, Col: "id", As: "si"},
			{Fn: AggMin, Col: "id", As: "mni"}, {Fn: AggMax, Col: "tag", As: "mxt"}},
	}
	keySets := [][]string{nil, {"tag"}, {"id"}, {"x"}, {"flag"}, {"tag", "flag"}, {"id", "x"}}
	for trial := 0; trial < 2; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "g", tr.Intn(60))
		for _, keys := range keySets {
			for _, aggs := range aggSets {
				checkPipeline(t, tr, tbl, stGroupBy(keys, aggs...))
			}
		}
	}
}

// TestGoldenGroupByEmptyGlobal: the one global group over no rows
// counts 0, sums 0, and takes the zero of the column's type as its
// extremes — typed, so the result stays an executable table.
func TestGoldenGroupByEmptyGlobal(t *testing.T) {
	r := rng.New(9)
	checkPipeline(t, r, randomTable(r, "empty", 0),
		stGroupBy(nil,
			Aggregate{Fn: AggCount, As: "n"}, Aggregate{Fn: AggSum, Col: "x", As: "s"},
			Aggregate{Fn: AggMin, Col: "x", As: "mn"}, Aggregate{Fn: AggMax, Col: "tag", As: "mx"}),
		stOrderBy("mn", false))
}

func TestGoldenDistinctOrderBy(t *testing.T) {
	r := rng.New(46)
	for trial := 0; trial < 10; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "d", tr.Intn(60))
		checkPipeline(t, tr, tbl, stDistinct())
		// Single-column distinct exercises the code-based fast path.
		checkPipeline(t, tr, tbl, stSelect("x"), stDistinct())
		for _, col := range goldenCols {
			checkPipeline(t, tr, tbl, stOrderBy(col, false))
			checkPipeline(t, tr, tbl, stOrderBy(col, true))
		}
	}
}

// --- generated pipelines ---

// cmpOps are plan.Cmp's operators, and cmpMeans what each means of a
// row's value v and the literal: Value.Less's order, under which a NaN
// row matches <=, >= and <> whatever the literal.
var (
	cmpOps   = []string{"=", "<>", "<", "<=", ">", ">="}
	cmpMeans = map[string]func(v, lit Value) bool{
		"=":  func(v, lit Value) bool { return v.Equal(lit) },
		"<>": func(v, lit Value) bool { return !v.Equal(lit) },
		"<":  func(v, lit Value) bool { return v.Less(lit) },
		"<=": func(v, lit Value) bool { return !lit.Less(v) },
		">":  func(v, lit Value) bool { return lit.Less(v) },
		">=": func(v, lit Value) bool { return !v.Less(lit) },
	}
)

// The shapes exprStep draws.
const (
	shapeOr = iota
	shapeNot
	shapeAnd
	shapeBetween
	shapeCmp
)

// exprStep builds a WhereExpr of the given shape over col, with
// literals of col's type: an OR, a NOT or an AND of comparisons, a
// BETWEEN, or one comparison.
func exprStep(r *rng.Stream, t *Table, col string, shape int) step {
	typ := t.Schema[refCol(t, col)].Type
	cmp := func() (plan.Expr, func(Value) bool) {
		op, lit := cmpOps[r.Intn(len(cmpOps))], randomValue(r, typ)
		return plan.Cmp{Op: op, Col: col, Val: litOfValue(lit)}, func(v Value) bool { return cmpMeans[op](v, lit) }
	}
	e1, k1 := cmp()
	e2, k2 := cmp()
	switch shape {
	case shapeOr:
		return stWhereExpr(plan.Or{L: e1, R: e2}, col, func(v Value) bool { return k1(v) || k2(v) })
	case shapeNot:
		return stWhereExpr(plan.Not{E: e1}, col, func(v Value) bool { return !k1(v) })
	case shapeAnd:
		return stWhereExpr(plan.And{L: e1, R: e2}, col, func(v Value) bool { return k1(v) && k2(v) })
	case shapeBetween:
		return stBetween(col, randomValue(r, typ), randomValue(r, typ))
	}
	return stWhereExpr(e1, col, k1)
}

// randomExprStep builds a WhereExpr over col of any shape.
func randomExprStep(r *rng.Stream, t *Table, col string) step {
	return exprStep(r, t, col, r.Intn(shapeCmp+1))
}

// maxJoinRows bounds a generated join's output, which keeps the
// nested-loop reference and a chain of joins over small key domains
// fast.
const maxJoinRows = 2000

// randomPipeline draws 2–7 steps valid for the evolving schema, which it
// tracks by running the reference as it goes. It may join each of
// joinable once, in the order given; a source among them is a
// self-join.
func randomPipeline(r *rng.Stream, src *Table, joinable []*Table) []step {
	cur := src
	pick := func(ok func(Column) bool) string {
		var names []string
		for _, c := range cur.Schema {
			if ok(c) {
				names = append(names, c.Name)
			}
		}
		if len(names) == 0 {
			return ""
		}
		return names[r.Intn(len(names))]
	}
	anyCol := func(Column) bool { return true }
	numeric := func(c Column) bool { return c.Type == TypeInt || c.Type == TypeFloat }
	str := func(c Column) bool { return c.Type == TypeString }
	// A numeric literal of either type: NaN, ±0, ±Inf and ints beyond
	// float64 precision among them.
	num := func() Value { return randomValue(r, Type(r.Intn(2))) }
	// Zone maps judge the stored columns, by their stored names.
	prunable := func(c Column) bool { return c.Name == "id" || c.Name == "x" }
	var steps []step
	joins := 0
	// A third of the pipelines open with joins and filters between them,
	// the shape the planner lowers into a region, and a third with a run
	// of filters zone maps can judge and then a group-by, the shape a
	// storage scan streams. A scripted step that cannot be drawn is
	// dropped.
	var script []int
	switch r.Intn(3) {
	case 0:
		for i := 1 + r.Intn(len(joinable)); i > 0; i-- {
			script = append(script, 3, 8)
		}
	case 1:
		for i := r.Intn(4); i > 0; i-- {
			script = append(script, 13)
		}
		script = append(script, 9)
	}
	for n := max(len(script), 2+r.Intn(6)); len(steps) < n; {
		col := pick(anyCol)
		var st step
		op := r.Intn(14)
		if len(script) > 0 {
			op, script = script[0], script[1:]
		}
		switch op {
		case 0:
			st = stWhereEq(col, randomValue(r, Type(r.Intn(4))))
		case 1:
			if col = pick(numeric); col == "" {
				continue
			}
			st = stCmp(col, cmpOps[r.Intn(len(cmpOps))], num())
		case 2, 6:
			if col = pick(str); col == "" {
				continue
			}
			st = exprStep(r, cur, col, r.Intn(2)) // an OR or a NOT
		case 3, 4:
			st = randomExprStep(r, cur, col)
		case 5:
			if col = pick(numeric); col == "" {
				continue
			}
			st = stBetween(col, num(), num())
		case 7:
			keep, seen := []string{col}, map[string]bool{strings.ToLower(col): true}
			for _, c := range cur.Schema {
				if k := strings.ToLower(c.Name); !seen[k] && r.Intn(2) == 0 {
					keep, seen[k] = append(keep, c.Name), true
				}
			}
			st = stSelect(keep...)
		case 8:
			if joins == len(joinable) {
				continue
			}
			d := joinable[joins]
			st = stJoin(d, col, d.Schema[r.Intn(len(d.Schema))].Name)
			if st.ref(cur).Len() > maxJoinRows {
				continue
			}
			joins++
		case 9:
			keys := []string{col}
			if k := pick(anyCol); r.Intn(2) == 0 && !strings.EqualFold(k, col) {
				keys = append(keys, k)
			}
			st = stGroupBy(keys,
				Aggregate{Fn: AggCount, As: fmt.Sprintf("n%d", len(steps))},
				Aggregate{Fn: AggFunc(1 + r.Intn(4)), Col: pick(anyCol), As: fmt.Sprintf("a%d", len(steps))})
		case 10:
			st = stDistinct()
		case 11:
			st = stOrderBy(col, r.Intn(2) == 0)
		case 12:
			st = stLimit(r.Intn(40))
		case 13:
			if col = pick(prunable); col == "" {
				continue
			}
			st = randomExprStep(r, cur, col)
		}
		cur = st.ref(cur)
		steps = append(steps, st)
	}
	return steps
}

// TestGoldenQueryPipeline drives generated pipelines — filters between
// joins for the planner to push down, up to three joined tables and a
// self-join, leading filters for zone maps to prune
// by, one- and two-key group-bys and sorts in any order, over sources of
// up to 200 rows — through checkPipeline, and requires that the storage
// points did their work: the colstore source pruned, the 1-byte budget
// spilled, and a partitioned scan streamed into a join and into a
// group-by.
func TestGoldenQueryPipeline(t *testing.T) {
	before, pruned := latticeWork, blocksPruned.Value()
	r := rng.New(47)
	for trial := 0; trial < 60; trial++ {
		tr := r.Split()
		people := randomTable(tr, "people", 20+tr.Intn(180))
		joinable := []*Table{randomTable(tr, "ref", tr.Intn(20)), randomTable(tr, "dim", tr.Intn(12)),
			randomTable(tr, "aux", 1+tr.Intn(6)), people}
		tr.Shuffle(len(joinable), func(i, j int) { joinable[i], joinable[j] = joinable[j], joinable[i] })
		checkPipeline(t, tr, people, randomPipeline(tr, people, joinable)...)
	}
	w, pruned := latticeWork, blocksPruned.Value()-pruned
	if pruned == 0 || w.spilled == before.spilled ||
		w.streamedJoins == before.streamedJoins || w.streamedGroups == before.streamedGroups {
		t.Fatalf("a storage point did no work: %d blocks pruned, %d spilling runs, %d streamed joins, %d streamed group-bys",
			pruned, w.spilled-before.spilled, w.streamedJoins-before.streamedJoins, w.streamedGroups-before.streamedGroups)
	}
}
