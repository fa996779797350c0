package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"modeldata/internal/engine/plan"
	"modeldata/internal/obs"
	"modeldata/internal/rng"
)

// --- fixed star schema for golden plan tests ---

// starDB builds the canonical 3-table star: a wide fact table, a
// medium dimension on gid, and a single-row dimension on tag. Written
// join order (fact⋈med, then ⋈tiny) is deliberately the bad one: the
// tiny join filters almost everything, so a cost-based planner must
// run it first.
func starDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase()

	fact := MustNewTable("fact", Schema{
		{Name: "id", Type: TypeInt},
		{Name: "gid", Type: TypeInt},
		{Name: "tag", Type: TypeString},
		{Name: "val", Type: TypeFloat},
	})
	for i := 0; i < 2000; i++ {
		fact.MustInsert(
			Int(int64(i)),
			Int(int64(i%64)),
			Str(fmt.Sprintf("t%02d", i%16)),
			Float(float64(i)+0.5),
		)
	}
	db.Put(fact)

	med := MustNewTable("med", Schema{
		{Name: "gid", Type: TypeInt},
		{Name: "region", Type: TypeString},
	})
	for g := 0; g < 64; g++ {
		med.MustInsert(Int(int64(g)), Str(fmt.Sprintf("r%d", g%4)))
	}
	db.Put(med)

	tiny := MustNewTable("tiny", Schema{
		{Name: "tag", Type: TypeString},
		{Name: "label", Type: TypeString},
	})
	tiny.MustInsert(Str("t03"), Str("the-one"))
	db.Put(tiny)

	return db
}

const starSQL = "SELECT fact.val, med.region, tiny.label " +
	"FROM fact JOIN med ON fact.gid = med.gid JOIN tiny ON fact.tag = tiny.tag " +
	"WHERE fact.val > 100"

// explainText runs EXPLAIN over sql and returns the rendered plan.
func explainText(t *testing.T, db *Database, sql string) string {
	t.Helper()
	out, err := db.Query("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN: %v", err)
	}
	var lines []string
	for _, r := range out.Rows {
		lines = append(lines, r[0].AsString())
	}
	return strings.Join(lines, "\n")
}

// writtenDB returns a clone of db in which the named table is a
// storage, so that a SQL query FROM it runs as written: the reference
// the planned route is compared against.
func writtenDB(db *Database, name string) *Database {
	out := db.Clone()
	t, _ := out.Get(name)
	out.Drop(name)
	out.PutStorage(t)
	return out
}

// TestExplainReordersStarJoin pins the issue's acceptance criterion:
// EXPLAIN over a 3-table join shows a cost-chosen join order that
// differs from the written order. The written order joins med first;
// the plan must join tiny first (it eliminates 15/16 of the fact
// table) and keep the pushed filter below both joins.
func TestExplainReordersStarJoin(t *testing.T) {
	db := starDB(t)
	text := explainText(t, db, starSQL)

	medJoin := strings.Index(text, "join fact.gid = med.gid")
	tinyJoin := strings.Index(text, "join fact.tag = tiny.tag")
	if medJoin < 0 || tinyJoin < 0 {
		t.Fatalf("missing join lines:\n%s", text)
	}
	// Deeper in the text tree = executed earlier. The tiny join must be
	// the inner (first) join even though it was written second.
	if !(medJoin < tinyJoin) {
		t.Fatalf("tiny join not reordered inside med join:\n%s", text)
	}

	// Pushdown: the WHERE was written above both joins but must render
	// directly above the fact scan, below both join lines.
	filt := strings.Index(text, "filter val > 100")
	scan := strings.Index(text, "scan fact")
	if filt < 0 || scan < 0 {
		t.Fatalf("missing filter/scan lines:\n%s", text)
	}
	if !(tinyJoin < filt && filt < scan) {
		t.Fatalf("filter not pushed below joins:\n%s", text)
	}

	// Projection pruning: the fact scan must not read the unused id.
	if !strings.Contains(text, "scan fact rows=2000 cols=[gid,tag,val]") {
		t.Fatalf("fact scan not pruned to gid,tag,val:\n%s", text)
	}
}

// TestExplainScanListsFilterColumns: a scan's cols= lists every column
// it reads, in schema order, including one only its pushed filter
// tests.
func TestExplainScanListsFilterColumns(t *testing.T) {
	text := explainText(t, starDB(t), "SELECT fact.val FROM fact JOIN med ON fact.gid = med.gid WHERE fact.tag = 't03'")
	if want := "    filter tag = 't03'\n      scan fact rows=2000 cols=[gid,tag,val]\n"; !strings.Contains(text, want) {
		t.Fatalf("EXPLAIN does not draw\n%s\nin:\n%s", want, text)
	}
}

// TestExplainJSON checks EXPLAIN JSON emits one row holding a plan
// document that encoding/json reads as the tree the text rendering
// draws, node for node in the same order.
func TestExplainJSON(t *testing.T) {
	db := starDB(t)
	out, err := db.Query("EXPLAIN JSON " + starSQL)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || len(out.Schema) != 1 {
		t.Fatalf("EXPLAIN JSON shape = %d×%d, want 1×1", out.Len(), len(out.Schema))
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out.Rows[0][0].AsString()), &doc); err != nil {
		t.Fatalf("EXPLAIN JSON did not parse: %v", err)
	}
	var nodes, lines []string
	var walk func(n map[string]any)
	walk = func(n map[string]any) {
		node := n["kind"].(string)
		if node == "scan" {
			node += " " + n["table"].(string)
		}
		nodes = append(nodes, node)
		for _, k := range []string{"input", "left", "right"} {
			if c, ok := n[k].(map[string]any); ok {
				walk(c)
			}
		}
	}
	walk(doc)
	text := explainText(t, db, starSQL)
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if f[0] == "scan" {
			f[0] += " " + f[1]
		}
		lines = append(lines, f[0])
	}
	if strings.Join(nodes, ";") != strings.Join(lines, ";") {
		t.Fatalf("JSON plan nodes %v, text EXPLAIN:\n%s", nodes, text)
	}
}

// TestQueryExplain drives Explain through the builder API, including a
// tail the planner cannot absorb (group-by above the join region).
func TestQueryExplain(t *testing.T) {
	db := starDB(t)
	fact, _ := db.Get("fact")
	med, _ := db.Get("med")
	tree, err := From(fact).
		Join(med, "gid", "gid").
		WhereExpr(plan.Cmp{Op: ">", Col: "fact.val", Val: plan.FloatLit(500)}).
		GroupBy([]string{"med.region"}, Aggregate{Fn: AggCount, As: "n"}).
		Explain()
	if err != nil {
		t.Fatal(err)
	}
	text := tree.Text()
	for _, want := range []string{"aggregate keys=[med.region]", "join fact.gid = med.gid", "filter val > 500", "scan fact"} {
		if !strings.Contains(text, want) {
			t.Fatalf("builder Explain missing %q:\n%s", want, text)
		}
	}
}

// TestPlannerOnOffGolden runs a battery of fixed SQL queries planned
// and, with the fact table a storage, as written, and requires
// byte-identical tables — same rows, same order, same float bits. Then
// the same over each key kind a join matches on (see
// plannerKeyKindCases).
func TestPlannerOnOffGolden(t *testing.T) {
	db := starDB(t)
	queries := []string{
		starSQL,
		"SELECT * FROM fact JOIN med ON fact.gid = med.gid JOIN tiny ON fact.tag = tiny.tag",
		"SELECT fact.id, med.region FROM fact JOIN med ON fact.gid = med.gid WHERE med.region = 'r2' AND fact.val < 250",
		"SELECT med.region, COUNT(fact.id) AS n, SUM(fact.val) AS total FROM fact JOIN med ON fact.gid = med.gid " +
			"JOIN tiny ON fact.tag = tiny.tag WHERE fact.val > 42 GROUP BY med.region ORDER BY n DESC",
		"SELECT DISTINCT med.region FROM fact JOIN med ON fact.gid = med.gid WHERE fact.val BETWEEN 100 AND 900 ORDER BY med.region",
		"SELECT fact.val FROM fact JOIN med ON fact.gid = med.gid JOIN tiny ON fact.tag = tiny.tag " +
			"WHERE med.region = 'r3' OR fact.val < 10 ORDER BY fact.val LIMIT 25",
		"SELECT fact.id FROM fact JOIN tiny ON fact.tag = tiny.tag WHERE NOT fact.val > 1000",
	}
	written := writtenDB(db, "fact")
	for i, sql := range queries {
		off, errOff := written.Query(sql)
		on, errOn := db.Query(sql)
		if errOff != nil || errOn != nil {
			t.Fatalf("query %d: as written err=%v planned err=%v", i, errOff, errOn)
		}
		requireSameTable(t, fmt.Sprintf("golden query %d", i), off, on)
	}
	plannerKeyKindCases(t)
}

// plannerKeyKindCases compares the planned region with the same query
// over a as a storage, which runs as written, where join 0 (a.k = b.k)
// matches on each key kind: ints, ints against floats, an int64 beyond
// 2^53 (byte keys), strings, bools, floats with ±0 and NaN, and
// mismatched kinds, which never match. Join 1 hangs c off b and join 2
// hangs d off a; a filter v >= 1 is written on scan fpos, after the
// join that introduces it.
func plannerKeyKindCases(t *testing.T) {
	t.Helper()
	const big = int64(1)<<53 + 1 // not a float64: forces byte keys
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, math.NaN(), 1.5}
	cases := []struct {
		name   string
		lt, rt Type
		lk, rk func(i int) Value
		empty  bool
	}{
		{"int-int", TypeInt, TypeInt, func(i int) Value { return Int(int64(i % 4)) }, func(i int) Value { return Int(int64(i % 5)) }, false},
		{"int-float", TypeInt, TypeFloat, func(i int) Value { return Int(int64(i % 4)) }, func(i int) Value { return Float(float64(i%6) / 2) }, false},
		{"int beyond 2^53", TypeInt, TypeInt, func(i int) Value { return Int(big - int64(i%3)) }, func(i int) Value { return Int(big - int64(i%2)) }, false},
		{"string", TypeString, TypeString, func(i int) Value { return Str(fmt.Sprint("s", i%4)) }, func(i int) Value { return Str(fmt.Sprint("s", i%3)) }, false},
		{"bool", TypeBool, TypeBool, func(i int) Value { return Bool(i%3 == 0) }, func(i int) Value { return Bool(i%2 == 0) }, false},
		{"float ±0 NaN", TypeFloat, TypeFloat, func(i int) Value { return Float(floats[i%4]) }, func(i int) Value { return Float(floats[(i+1)%3]) }, false},
		{"kind mismatch", TypeInt, TypeString, func(i int) Value { return Int(int64(i % 4)) }, func(i int) Value { return Str("1") }, true},
	}
	intCol := func(name string) Column { return Column{Name: name, Type: TypeInt} }
	for _, tc := range cases {
		a := MustNewTable("a", Schema{intCol("id"), {Name: "k", Type: tc.lt}, intCol("v")})
		b := MustNewTable("b", Schema{{Name: "k", Type: tc.rt}, intCol("k2"), intCol("v")})
		c := MustNewTable("c", Schema{intCol("k2"), intCol("v")})
		d := MustNewTable("d", Schema{intCol("id"), intCol("v")})
		for i := 0; i < 13; i++ {
			a.MustInsert(Int(int64(i%5)), tc.lk(i), Int(int64(i%4)))
		}
		for i := 0; i < 9; i++ {
			b.MustInsert(tc.rk(i), Int(int64(i%3)), Int(int64((i+1)%4)))
		}
		for i := 0; i < 40; i++ {
			c.MustInsert(Int(int64(i%4)), Int(int64(i%4)))
		}
		for i := 0; i < 7; i++ {
			d.MustInsert(Int(int64(i%5)), Int(int64(i%4)))
		}
		scans := []*Table{a, b, c, d}
		joins := []regionJoin{{0, "k", "k"}, {1, "k2", "k2"}, {0, "id", "id"}}
		query := func(src *Query, fpos int) *Query {
			keep := func(col string) plan.Expr { return plan.Cmp{Op: ">=", Col: col, Val: plan.IntLit(1)} }
			q := src
			if fpos == 0 {
				q = q.WhereExpr(keep("v"))
			}
			for p := 1; p <= len(joins); p++ {
				jn := joins[p-1]
				// As SQL lowers it: the first join prefixes the bare left
				// names, later joins keep them flat.
				if p == 1 {
					q = q.Join(scans[p], jn.leftCol, jn.rightCol)
				} else {
					q = q.join(scans[p], scans[jn.leftScan].Name+"."+jn.leftCol, jn.rightCol, true)
				}
				if fpos == p {
					q = q.WhereExpr(keep(scans[p].Name + ".v"))
				}
			}
			return q
		}
		for fpos := 0; fpos <= 2; fpos++ {
			label := fmt.Sprintf("%s, filter at %d", tc.name, fpos)
			off, err := query(FromStorage(a), fpos).Run()
			if err != nil {
				t.Fatalf("%s: as written: %v", label, err)
			}
			on, err := query(From(a), fpos).Run()
			if err != nil {
				t.Fatalf("%s: planned: %v", label, err)
			}
			requireSameTable(t, label, off, on)
			if (len(off.Rows) == 0) != tc.empty {
				t.Fatalf("%s: %d result rows, want empty=%v", label, len(off.Rows), tc.empty)
			}
		}
	}
}

// TestPlannerRandomizedEquivalence drives the shapes whose join order
// the planner chooses — a chain of 1–3 joins over the id, tag and flag
// columns, filters between the joins for it to push down, now and then
// an opaque filter that cuts the planned region short, and a Distinct,
// OrderBy or Limit after — through checkPipeline, and requires that the
// From point planned every one of them.
func TestPlannerRandomizedEquivalence(t *testing.T) {
	planned := obs.Default().Counter(MetricPlanPlanned)
	r := rng.New(1234)
	joinable := func(c Column) bool {
		base := c.Name[strings.LastIndexByte(c.Name, '.')+1:]
		return base == "id" || base == "tag" || base == "flag"
	}
	for trial := 0; trial < 60; trial++ {
		tr := r.Split()
		src := randomTable(tr, "t0", 1+tr.Intn(40))
		cur, steps := src, []step(nil)
		add := func(st step) { cur, steps = st.ref(cur), append(steps, st) }
		pick := func(ok func(Column) bool) string {
			var names []string
			for _, c := range cur.Schema {
				if ok(c) {
					names = append(names, c.Name)
				}
			}
			return names[tr.Intn(len(names))]
		}
		if tr.Intn(2) == 0 {
			add(randomExprStep(tr, cur, pick(func(Column) bool { return true })))
		}
		for i, n := 1, 2+tr.Intn(3); i < n; i++ {
			right := randomTable(tr, fmt.Sprintf("t%d", i), 1+tr.Intn(20))
			join := stJoin(right, pick(joinable), right.Schema[[]int{0, 2, 3}[tr.Intn(3)]].Name)
			if join.ref(cur).Len() > maxJoinRows {
				continue
			}
			add(join)
			switch tr.Intn(4) {
			case 0, 1:
				add(randomExprStep(tr, cur, pick(func(Column) bool { return true })))
			case 2:
				add(stCmp(pick(func(c Column) bool { return c.Type == TypeFloat }), "<", Float(float64(tr.Intn(5))-2)))
			}
		}
		switch tr.Intn(4) {
		case 0:
			add(stDistinct())
		case 1:
			add(stOrderBy(pick(func(Column) bool { return true }), tr.Intn(2) == 0))
		case 2:
			add(stLimit(tr.Intn(10)))
		}
		before := planned.Value()
		checkPipeline(t, tr, src, steps...)
		if planned.Value() == before {
			t.Fatalf("trial %d: the From point did not plan %s", trial, src.Name)
		}
	}
}

// TestPlannerSelfJoinEquivalence runs self-joins, where alias
// deduplication and rid bookkeeping are easiest to get wrong, through
// checkPipeline: a table joined to itself twice, the second time on a
// column the first join repeated, with a filter on a repeated column.
func TestPlannerSelfJoinEquivalence(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 40; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "s", 1+tr.Intn(30))
		checkPipeline(t, tr, tbl,
			stJoin(tbl, "tag", "tag"),
			stJoin(tbl, "s.id", "id"),
			stWhereExpr(plan.Cmp{Op: ">", Col: "s.x", Val: plan.FloatLit(-1)}, "s.x",
				func(v Value) bool { return Float(-1).Less(v) }))
	}
}

// --- prepared statements and metrics ---

// TestPreparedCachesJoinOrder checks that a Prepared statement plans
// once: the first execution misses the choice cache, the second hits,
// and both return the same bytes as a fresh Database.Query.
func TestPreparedCachesJoinOrder(t *testing.T) {
	db := starDB(t)
	p, err := Prepare(starSQL)
	if err != nil {
		t.Fatal(err)
	}
	hits := obs.Default().Counter(MetricPlanCacheHits)
	misses := obs.Default().Counter(MetricPlanCacheMisses)
	h0, m0 := hits.Value(), misses.Value()

	first, err := p.Exec(db)
	if err != nil {
		t.Fatal(err)
	}
	if misses.Value() != m0+1 {
		t.Fatalf("first Exec: misses %d→%d, want +1", m0, misses.Value())
	}
	second, err := p.Exec(db)
	if err != nil {
		t.Fatal(err)
	}
	if hits.Value() != h0+1 {
		t.Fatalf("second Exec: hits %d→%d, want +1", h0, hits.Value())
	}
	requireSameTable(t, "prepared re-exec", first, second)

	direct, err := db.Query(starSQL)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, "prepared vs direct", direct, first)
}

func TestPrepareRejectsNonSelect(t *testing.T) {
	if _, err := Prepare("INSERT INTO x VALUES (1)"); err == nil {
		t.Fatal("Prepare accepted INSERT")
	}
}

// TestPlannerMetrics checks the engine.plan.* counters fire: a planned
// reordered query advances planned/reordered/pushdown/canon_sorts, and
// the same query over the fact table as a storage advances direct.
func TestPlannerMetrics(t *testing.T) {
	db := starDB(t)
	reg := obs.Default()
	planned := reg.Counter(MetricPlanPlanned)
	direct := reg.Counter(MetricPlanDirect)
	reordered := reg.Counter(MetricPlanReordered)
	pushdown := reg.Counter(MetricPlanPushdown)
	sorts := reg.Counter(MetricPlanCanonSorts)

	p0, r0, pd0, s0 := planned.Value(), reordered.Value(), pushdown.Value(), sorts.Value()
	if _, err := db.Query(starSQL); err != nil {
		t.Fatal(err)
	}
	if planned.Value() != p0+1 {
		t.Fatalf("planned %d→%d, want +1", p0, planned.Value())
	}
	if reordered.Value() != r0+1 {
		t.Fatalf("reordered %d→%d, want +1", r0, reordered.Value())
	}
	if pushdown.Value() <= pd0 {
		t.Fatalf("pushdown did not advance: %d→%d", pd0, pushdown.Value())
	}
	if sorts.Value() != s0+1 {
		t.Fatalf("canon_sorts %d→%d, want +1", s0, sorts.Value())
	}

	d0 := direct.Value()
	if _, err := writtenDB(db, "fact").Query(starSQL); err != nil {
		t.Fatal(err)
	}
	if direct.Value() != d0+1 {
		t.Fatalf("direct %d→%d, want +1", d0, direct.Value())
	}
}
