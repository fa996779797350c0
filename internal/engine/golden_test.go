package engine

// Golden-equivalence suite: the engine's one execution route is checked
// against a small reference interpreter over plain rows (nested-loop
// join, map-of-slices group-by, sort.SliceStable) — same schema, same
// row order, same Value payload bits — on randomized inputs that cover
// the awkward corners of the key encoding (NaN, -0, int64s beyond
// float64 precision, strings containing the old separator byte, empty
// results). Every pipeline runs at every point of {planner on, off} ×
// {budget unlimited, 1 byte}. Equality is checked down to float bit
// patterns, not tolerances.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"modeldata/internal/engine/plan"
	"modeldata/internal/rng"
)

// sameValueBits reports whether two Values are indistinguishable.
// Floats compare by bit pattern (so -0 vs +0 is a difference), except
// that all NaNs form one equivalence class: values the operators copy
// (keys, MIN/MAX) keep their exact payloads, but a NaN produced by
// arithmetic (SUM/AVG) has no payload guarantee — the compiler may
// order commutative float additions differently per code shape, and
// the hardware propagates whichever operand's payload comes first. The
// engine itself treats every NaN as one key ("nNaN").
func sameValueBits(a, b Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case TypeFloat:
		af, bf := a.AsFloat(), b.AsFloat()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return math.IsNaN(af) && math.IsNaN(bf)
		}
		return math.Float64bits(af) == math.Float64bits(bf)
	default:
		return a.Key() == b.Key() && a.String() == b.String()
	}
}

// requireSameTable fails the test unless the two tables are
// byte-identical: same name, schema, row count, and every Value equal
// down to payload bits. nil Rows and empty Rows are the same relation.
func requireSameTable(t *testing.T, label string, want, got *Table) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("%s: name %q vs %q", label, want.Name, got.Name)
	}
	if len(want.Schema) != len(got.Schema) {
		t.Fatalf("%s: schema width %d vs %d", label, len(want.Schema), len(got.Schema))
	}
	for j := range want.Schema {
		if want.Schema[j] != got.Schema[j] {
			t.Fatalf("%s: schema[%d] %+v vs %+v", label, j, want.Schema[j], got.Schema[j])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			t.Fatalf("%s: row %d arity %d vs %d", label, i, len(want.Rows[i]), len(got.Rows[i]))
		}
		for j := range want.Rows[i] {
			if !sameValueBits(want.Rows[i][j], got.Rows[i][j]) {
				t.Fatalf("%s: row %d col %d: %v (key %q) vs %v (key %q)",
					label, i, j,
					want.Rows[i][j], want.Rows[i][j].Key(),
					got.Rows[i][j], got.Rows[i][j].Key())
			}
		}
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

// refJoin is a nested-loop equi-join. The engine hashes the smaller
// side (ties: the right) and emits in probe order, build order within a
// key — so the outer loop runs over the larger side.
func refJoin(l, r *Table, lc, rc string) *Table {
	li, ri := refCol(l, lc), refCol(r, rc)
	out := &Table{Name: l.Name + "_" + r.Name}
	for _, c := range l.Schema {
		out.Schema = append(out.Schema, Column{Name: l.Name + "." + c.Name, Type: c.Type})
	}
	for _, c := range r.Schema {
		out.Schema = append(out.Schema, Column{Name: r.Name + "." + c.Name, Type: c.Type})
	}
	emit := func(lr, rr Row) {
		if string(lr[li].AppendKey(nil)) == string(rr[ri].AppendKey(nil)) {
			out.Rows = append(out.Rows, append(lr.Clone(), rr...))
		}
	}
	if len(l.Rows) < len(r.Rows) {
		for _, rr := range r.Rows {
			for _, lr := range l.Rows {
				emit(lr, rr)
			}
		}
	} else {
		for _, lr := range l.Rows {
			for _, rr := range r.Rows {
				emit(lr, rr)
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

func refExtend(t *Table, name string, typ Type, f func(Row) Value) *Table {
	out := &Table{Name: t.Name, Schema: append(t.Schema.Clone(), Column{Name: name, Type: typ})}
	for _, r := range t.Rows {
		out.Rows = append(out.Rows, append(r.Clone(), f(r)))
	}
	return out
}

// --- pipelines: one step = the builder call and its specification ---

// step is one pipeline operation. saw, set for the opaque-callback
// steps, collects every Row the engine handed the callback; the rows
// are retained without copying, so comparing them to the step's input
// after Run proves the engine hands out fresh rows.
type step struct {
	label string
	q     func(*Query) *Query
	ref   func(*Table) *Table
	saw   *[]Row
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

func stWhereFloat(col string, cut float64) step {
	pred := func(f float64) bool { return f < cut }
	return stKeep(fmt.Sprintf("WhereFloat(%s<%v)", col, cut), col,
		func(q *Query) *Query { return q.WhereFloat(col, pred) },
		func(x Value) bool { return x.IsNumeric() && pred(x.AsFloat()) })
}

func stWhereString(col string) step {
	pred := func(s string) bool { return len(s) >= 2 }
	return stKeep("WhereString("+col+")", col,
		func(q *Query) *Query { return q.WhereString(col, pred) },
		func(x Value) bool { return x.Type() == TypeString && pred(x.AsString()) })
}

func stWhereExpr(e plan.Expr, col string, keep func(Value) bool) step {
	return stKeep("WhereExpr("+e.String()+")", col, func(q *Query) *Query { return q.WhereExpr(e) }, keep)
}

func stWhere(col string) step {
	keep := func(x Value) bool { return x.Less(Int(1)) }
	st := stKeep("Where(func "+col+")", col, nil, keep)
	st.saw = new([]Row)
	st.q = func(q *Query) *Query {
		j, _ := q.schema.ColIndex(col)
		return q.Where(func(r Row) bool {
			*st.saw = append(*st.saw, r)
			return keep(r[j])
		})
	}
	return st
}

func stExtend(name, col string) step {
	saw := new([]Row)
	double := func(x Value) Value { return Float(x.AsFloat() * 2) }
	return step{
		label: "Extend(" + name + " from " + col + ")",
		saw:   saw,
		q: func(q *Query) *Query {
			j, _ := q.schema.ColIndex(col)
			return q.Extend(name, TypeFloat, func(r Row) Value {
				*saw = append(*saw, r)
				return double(r[j])
			})
		},
		ref: func(t *Table) *Table {
			j := refCol(t, col)
			return refExtend(t, name, TypeFloat, func(r Row) Value { return double(r[j]) })
		},
	}
}

func stSelect(cols ...string) step {
	return step{fmt.Sprintf("Select%v", cols),
		func(q *Query) *Query { return q.Select(cols...) },
		func(t *Table) *Table { return refProject(t, cols) }, nil}
}

func stRename(oldName, newName string) step {
	return step{"Rename(" + oldName + "," + newName + ")",
		func(q *Query) *Query { return q.Rename(oldName, newName) },
		func(t *Table) *Table { return refRename(t, oldName, newName) }, nil}
}

func stJoin(right *Table, lc, rc string) step {
	return step{"Join(" + right.Name + "," + lc + "," + rc + ")",
		func(q *Query) *Query { return q.Join(right, lc, rc) },
		func(t *Table) *Table { return refJoin(t, right, lc, rc) }, nil}
}

func stGroupBy(keys []string, aggs ...Aggregate) step {
	return step{fmt.Sprintf("GroupBy(%v,%v)", keys, aggs),
		func(q *Query) *Query { return q.GroupBy(keys, aggs...) },
		func(t *Table) *Table { return refGroupBy(t, keys, aggs) }, nil}
}

func stDistinct() step { return step{"Distinct", (*Query).Distinct, refDistinct, nil} }

func stOrderBy(col string, desc bool) step {
	return step{fmt.Sprintf("OrderBy(%s,%v)", col, desc),
		func(q *Query) *Query { return q.OrderBy(col, desc) },
		func(t *Table) *Table { return refOrderBy(t, col, desc) }, nil}
}

func stLimit(n int) step {
	return step{fmt.Sprintf("Limit(%d)", n),
		func(q *Query) *Query { return q.Limit(n) },
		func(t *Table) *Table { return refLimit(t, n) }, nil}
}

// checkPipeline is the one equivalence table: it runs steps over src
// through the reference interpreter once and through the engine at
// every point of the configuration lattice, requiring identical bytes
// everywhere and callbacks that saw exactly their step's input.
func checkPipeline(t *testing.T, src *Table, steps ...step) {
	t.Helper()
	want, q, label := src, From(src).WithSpillDir(t.TempDir()), "From("+src.Name+")"
	inputs := make([]*Table, len(steps))
	for i, st := range steps {
		inputs[i] = want
		want, q, label = st.ref(want), st.q(q), label+"."+st.label
	}
	if n, err := q.Count(); err != nil || n != want.Len() {
		t.Fatalf("%s: Count = %d, %v; want %d", label, n, err, want.Len())
	}
	for _, pt := range lattice(q) {
		cfg := label + " " + pt.label
		for _, st := range steps {
			if st.saw != nil {
				*st.saw = nil
			}
		}
		got, err := pt.q.Run()
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		requireSameTable(t, cfg, want, got)
		for i, st := range steps {
			if st.saw != nil {
				seen := &Table{Name: inputs[i].Name, Schema: inputs[i].Schema, Rows: *st.saw}
				requireSameTable(t, cfg+" rows handed to "+st.label, inputs[i], seen)
			}
		}
	}
}

// latticePoint is q configured for one point of the lattice.
type latticePoint struct {
	label string
	q     *Query
}

// lattice returns q at every point of {planner on, off} × {budget
// unlimited, 1 byte}.
func lattice(q *Query) []latticePoint {
	var pts []latticePoint
	for _, plannerOn := range []bool{true, false} {
		for _, budget := range []int64{0, 1} {
			pq := q.WithPlanner(plannerOn).WithMemoryBudget(budget)
			pts = append(pts, latticePoint{fmt.Sprintf("[planner=%v budget=%d]", plannerOn, budget), pq})
		}
	}
	return pts
}

// TestQueryRowFallback: no point of the lattice has a row route to fall
// back to — a table breaking the executable-table rule is refused at
// every one of them (metrics_test.go pins the refusal itself).
func TestQueryRowFallback(t *testing.T) {
	q := From(mixedTable()).WithSpillDir(t.TempDir()).
		WhereFloat("x", func(f float64) bool { return f > 0 }).
		GroupBy([]string{"id"}, Aggregate{Fn: AggCount, As: "n"})
	for _, pt := range lattice(q) {
		requireRefused(t, pt.label, func() error { _, err := pt.q.Run(); return err })
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
			checkPipeline(t, tbl, stWhereEq(col, probe))
			checkPipeline(t, tbl, randomExprStep(tr, tbl, col))
		}
		cut := float64(tr.Intn(5)) - 2
		checkPipeline(t, tbl, stWhereFloat("id", cut))
		checkPipeline(t, tbl, stWhereFloat("x", cut))
		checkPipeline(t, tbl, stWhereString("tag"))
		checkPipeline(t, tbl, stWhere("id"))
	}
}

func TestGoldenProjectRenameLimit(t *testing.T) {
	r := rng.New(43)
	for trial := 0; trial < 10; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "p", tr.Intn(40))
		checkPipeline(t, tbl, stSelect("tag", "id"))
		checkPipeline(t, tbl, stRename("x", "y"))
		checkPipeline(t, tbl, stLimit(tr.Intn(50)))
		checkPipeline(t, tbl, stExtend("x2", "x"))
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
				checkPipeline(t, l, stJoin(rt, lc, rc))
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
				checkPipeline(t, tbl, stGroupBy(keys, aggs...))
			}
		}
	}
}

// TestGoldenGroupByEmptyGlobal: the one global group over no rows
// counts 0, sums 0, and takes the zero of the column's type as its
// extremes — typed, so the result stays an executable table.
func TestGoldenGroupByEmptyGlobal(t *testing.T) {
	tbl := randomTable(rng.New(9), "empty", 0)
	checkPipeline(t, tbl,
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
		checkPipeline(t, tbl, stDistinct())
		// Single-column distinct exercises the code-based fast path.
		checkPipeline(t, tbl, stSelect("x"), stDistinct())
		for _, col := range goldenCols {
			checkPipeline(t, tbl, stOrderBy(col, false))
			checkPipeline(t, tbl, stOrderBy(col, true))
		}
	}
}

// --- generated pipelines ---

// randomExprStep builds a WhereExpr over col: a comparison, a BETWEEN,
// or an AND/OR/NOT of comparisons.
func randomExprStep(r *rng.Stream, t *Table, col string) step {
	typ := t.Schema[refCol(t, col)].Type
	cmp := func() (plan.Expr, func(Value) bool) {
		op := []string{"=", "<>", "<", "<=", ">", ">="}[r.Intn(6)]
		lit := randomValue(r, typ)
		means := map[string]func(Value) bool{
			"=":  func(v Value) bool { return v.Equal(lit) },
			"<>": func(v Value) bool { return !v.Equal(lit) },
			"<":  func(v Value) bool { return v.Less(lit) },
			"<=": func(v Value) bool { return !lit.Less(v) },
			">":  func(v Value) bool { return lit.Less(v) },
			">=": func(v Value) bool { return !v.Less(lit) },
		}
		return plan.Cmp{Op: op, Col: col, Val: litOfValue(lit)}, means[op]
	}
	e1, k1 := cmp()
	e2, k2 := cmp()
	switch r.Intn(5) {
	case 0:
		lo, hi := randomValue(r, typ), randomValue(r, typ)
		return stWhereExpr(plan.Between{Col: col, Lo: litOfValue(lo), Hi: litOfValue(hi)}, col,
			func(v Value) bool { return !v.Less(lo) && !hi.Less(v) })
	case 1:
		return stWhereExpr(plan.And{L: e1, R: e2}, col, func(v Value) bool { return k1(v) && k2(v) })
	case 2:
		return stWhereExpr(plan.Or{L: e1, R: e2}, col, func(v Value) bool { return k1(v) || k2(v) })
	case 3:
		return stWhereExpr(plan.Not{E: e1}, col, func(v Value) bool { return !k1(v) })
	}
	return stWhereExpr(e1, col, k1)
}

// randomPipeline draws 2–7 steps valid for the evolving schema, which it
// tracks by running the reference as it goes.
func randomPipeline(r *rng.Stream, src *Table, dims []*Table) []step {
	cur := src
	pick := func(ok func(Type) bool) string {
		var names []string
		for _, c := range cur.Schema {
			if ok(c.Type) {
				names = append(names, c.Name)
			}
		}
		if len(names) == 0 {
			return ""
		}
		return names[r.Intn(len(names))]
	}
	anyType := func(Type) bool { return true }
	numeric := func(t Type) bool { return t == TypeInt || t == TypeFloat }
	var steps []step
	joins, extends := 0, 0
	// Half the pipelines open with a filter/join/filter/join prefix, the
	// shape the planner lowers into a region.
	var script []int
	if r.Intn(2) == 0 {
		script = []int{3, 8, 3, 8}
	}
	for n := 2 + r.Intn(6); len(steps) < n; {
		col := pick(anyType)
		var st step
		op := r.Intn(13)
		if len(steps) < len(script) {
			op = script[len(steps)]
		}
		switch op {
		case 0:
			st = stWhereEq(col, randomValue(r, Type(r.Intn(4))))
		case 1:
			if col = pick(numeric); col == "" {
				continue
			}
			st = stWhereFloat(col, float64(r.Intn(5))-2)
		case 2:
			st = stWhereString(col)
		case 3, 4:
			st = randomExprStep(r, cur, col)
		case 5:
			if col = pick(numeric); col == "" {
				continue
			}
			st = stWhere(col)
		case 6:
			if col = pick(numeric); col == "" || extends == 2 {
				continue
			}
			extends++
			st = stExtend(fmt.Sprintf("e%d", extends), col)
		case 7:
			keep := []string{col}
			for _, c := range cur.Schema {
				if c.Name != col && r.Intn(2) == 0 {
					keep = append(keep, c.Name)
				}
			}
			st = stSelect(keep...)
		case 8:
			if joins == len(dims) {
				continue
			}
			d := dims[joins]
			joins++
			st = stJoin(d, col, d.Schema[r.Intn(len(d.Schema))].Name)
		case 9:
			aggCol := pick(anyType)
			st = stGroupBy([]string{col},
				Aggregate{Fn: AggCount, As: fmt.Sprintf("n%d", len(steps))},
				Aggregate{Fn: AggFunc(1 + r.Intn(4)), Col: aggCol, As: fmt.Sprintf("a%d", len(steps))})
		case 10:
			st = stDistinct()
		case 11:
			st = stOrderBy(col, r.Intn(2) == 0)
		case 12:
			st = stLimit(r.Intn(40))
		}
		cur = st.ref(cur)
		steps = append(steps, st)
	}
	return steps
}

// TestGoldenQueryPipeline drives generated pipelines — filters between
// joins for the planner to push down, opaque callbacks, group-bys and
// sorts in any order — through checkPipeline.
func TestGoldenQueryPipeline(t *testing.T) {
	r := rng.New(47)
	for trial := 0; trial < 40; trial++ {
		tr := r.Split()
		people := randomTable(tr, "people", 20+tr.Intn(40))
		dims := []*Table{randomTable(tr, "ref", tr.Intn(20)), randomTable(tr, "dim", tr.Intn(12))}
		checkPipeline(t, people, randomPipeline(tr, people, dims)...)
	}
}
