package engine

import (
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

// plannerOffQuery binds sql to db with the planner off: the written
// order, which the planner-on results are compared against.
func plannerOffQuery(t *testing.T, db *Database, sql string) *Query {
	t.Helper()
	p, err := Prepare(sql)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	q, err := p.Query(db)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return q.WithPlanner(false)
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

// TestExplainWrittenOrderWhenPlannerOff pins the planner-off contract:
// EXPLAIN renders the written order, no reordering.
func TestExplainWrittenOrderWhenPlannerOff(t *testing.T) {
	db := starDB(t)
	tree, err := plannerOffQuery(t, db, starSQL).Explain()
	if err != nil {
		t.Fatal(err)
	}
	text := tree.Text()

	medJoin := strings.Index(text, "join fact.gid = med.gid")
	tinyJoin := strings.Index(text, "join fact.tag = tiny.tag")
	if medJoin < 0 || tinyJoin < 0 {
		t.Fatalf("missing join lines:\n%s", text)
	}
	if !(tinyJoin < medJoin) {
		t.Fatalf("planner-off EXPLAIN should show written order (med inside tiny):\n%s", text)
	}
}

// TestExplainJSON checks EXPLAIN JSON emits one row holding a plan
// document that parses back into the same tree as the text rendering.
func TestExplainJSON(t *testing.T) {
	db := starDB(t)
	out, err := db.Query("EXPLAIN JSON " + starSQL)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || len(out.Schema) != 1 {
		t.Fatalf("EXPLAIN JSON shape = %d×%d, want 1×1", out.Len(), len(out.Schema))
	}
	tree, err := plan.FromJSON([]byte(out.Rows[0][0].AsString()))
	if err != nil {
		t.Fatalf("EXPLAIN JSON did not parse: %v", err)
	}
	if text := explainText(t, db, starSQL); strings.TrimRight(tree.Text(), "\n") != text {
		t.Fatalf("JSON plan renders differently:\n%s\nvs text EXPLAIN:\n%s", tree.Text(), text)
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

// TestPlannerOnOffGolden runs a battery of fixed SQL queries with the
// planner on and off and requires byte-identical tables — same rows,
// same order, same float bits.
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
	for i, sql := range queries {
		off, errOff := plannerOffQuery(t, db, sql).Run()
		on, errOn := db.Query(sql)
		if errOff != nil || errOn != nil {
			t.Fatalf("query %d: off err=%v on err=%v", i, errOff, errOn)
		}
		requireSameTable(t, fmt.Sprintf("golden query %d", i), off, on)
	}
}

// --- randomized equivalence ---

// randomPlannerExpr builds a random planner-visible predicate over a
// column of the given schema (prefix-qualified names included).
func randomPlannerExpr(r *rng.Stream, schema Schema) plan.Expr {
	c := schema[r.Intn(len(schema))]
	switch c.Type {
	case TypeInt:
		if r.Intn(2) == 0 {
			lo := int64(r.Intn(7)) - 3
			return plan.Between{Col: c.Name, Lo: plan.IntLit(lo), Hi: plan.IntLit(lo + int64(r.Intn(4)))}
		}
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return plan.Cmp{Op: ops[r.Intn(len(ops))], Col: c.Name, Val: plan.IntLit(int64(r.Intn(7)) - 3)}
	case TypeFloat:
		ops := []string{"=", "<", ">="}
		return plan.Cmp{Op: ops[r.Intn(len(ops))], Col: c.Name, Val: plan.FloatLit(float64(r.Intn(7)) - 3)}
	case TypeString:
		choices := []string{"", "a", "ab", "xyz"}
		return plan.Cmp{Op: "=", Col: c.Name, Val: plan.StringLit(choices[r.Intn(len(choices))])}
	default:
		return plan.Cmp{Op: "=", Col: c.Name, Val: plan.BoolLit(r.Intn(2) == 0)}
	}
}

// combineExpr randomly wraps leaves in AND/OR/NOT so pushdown sees
// multi-conjunct and non-decomposable shapes.
func combineExpr(r *rng.Stream, schema Schema) plan.Expr {
	e := randomPlannerExpr(r, schema)
	switch r.Intn(4) {
	case 0:
		return plan.And{L: e, R: randomPlannerExpr(r, schema)}
	case 1:
		return plan.Or{L: e, R: randomPlannerExpr(r, schema)}
	case 2:
		return plan.Not{E: e}
	}
	return e
}

// TestPlannerRandomizedEquivalence is the randomized half of the
// acceptance suite: for hundreds of generated multi-join queries over
// adversarial data (NaNs, negative zero, NUL-bearing strings, heavy
// key collisions), the planner-on result must be byte-identical to the
// planner-off (written order) result.
func TestPlannerRandomizedEquivalence(t *testing.T) {
	r := rng.New(1234)
	joinCols := []string{"id", "tag", "flag"}
	for trial := 0; trial < 300; trial++ {
		tr := r.Split()
		nt := 2 + tr.Intn(3) // 2..4 tables, 1..3 joins
		tbls := make([]*Table, nt)
		for i := range tbls {
			size := 1 + tr.Intn(40)
			if i > 0 {
				size = 1 + tr.Intn(20)
			}
			tbls[i] = randomTable(tr.Split(), fmt.Sprintf("t%d", i), size)
		}
		q := From(tbls[0])
		if tr.Intn(2) == 0 {
			q = q.WhereExpr(combineExpr(tr.Split(), tbls[0].Schema))
		}
		for i := 1; i < nt; i++ {
			q = q.Join(tbls[i], joinCols[tr.Intn(len(joinCols))], joinCols[tr.Intn(len(joinCols))])
			if tr.Intn(2) == 0 {
				q = q.WhereExpr(combineExpr(tr.Split(), q.schema))
			}
		}
		// Occasionally an opaque filter, which truncates the planned
		// region mid-chain.
		if tr.Intn(4) == 0 {
			q = q.WhereFloat(q.schema[1].Name, func(v float64) bool { return v > -1 })
		}
		switch tr.Intn(4) {
		case 0:
			q = q.Distinct()
		case 1:
			q = q.OrderBy(q.schema[tr.Intn(len(q.schema))].Name, tr.Intn(2) == 0)
		case 2:
			q = q.Limit(tr.Intn(10))
		}

		off, errOff := q.WithPlanner(false).Run()
		on, errOn := q.WithPlanner(true).Run()
		if (errOff == nil) != (errOn == nil) {
			t.Fatalf("trial %d: error mismatch off=%v on=%v", trial, errOff, errOn)
		}
		if errOff != nil {
			continue
		}
		requireSameTable(t, fmt.Sprintf("trial %d", trial), off, on)
	}
}

// TestPlannerSelfJoinEquivalence exercises self-joins, where alias
// deduplication and rid bookkeeping are easiest to get wrong.
func TestPlannerSelfJoinEquivalence(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 40; trial++ {
		tbl := randomTable(r.Split(), "s", 1+r.Intn(30))
		q := From(tbl).
			Join(tbl, "tag", "tag").
			Join(tbl, "s.id", "id").
			WhereExpr(plan.Cmp{Op: ">", Col: "s.x", Val: plan.FloatLit(-1)})
		off, errOff := q.WithPlanner(false).Run()
		on, errOn := q.WithPlanner(true).Run()
		if (errOff == nil) != (errOn == nil) {
			t.Fatalf("trial %d: error mismatch off=%v on=%v", trial, errOff, errOn)
		}
		if errOff != nil {
			continue
		}
		requireSameTable(t, fmt.Sprintf("self-join trial %d", trial), off, on)
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
// a planner-off run advances direct.
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
	if _, err := plannerOffQuery(t, db, starSQL).Run(); err != nil {
		t.Fatal(err)
	}
	if direct.Value() != d0+1 {
		t.Fatalf("direct %d→%d, want +1", d0, direct.Value())
	}
}

// TestCanonLensKeyKinds pins build-side reconstruction across key kinds.
// canonLens counts a join edge on uint64 key codes where the join
// itself would and on byte keys otherwise; either way it must return
// the written path's intermediate sizes — so the planned path forces
// the written build sides — and planner-on bytes must equal planner-off
// bytes. Join 0 (a.k = b.k) carries the key kind under test; join 1
// hangs c off b, so b's count has a child edge; join 2 hangs d off a.
func TestCanonLensKeyKinds(t *testing.T) {
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
		// query is the written region up to join `upto`, with the filter
		// v >= 1 on scan fpos written at position fpos.
		query := func(upto, fpos int) *Query {
			keep := func(col string) plan.Expr { return plan.Cmp{Op: ">=", Col: col, Val: plan.IntLit(1)} }
			q := From(a)
			if fpos == 0 {
				q = q.WhereExpr(keep("v"))
			}
			for p := 1; p <= upto; p++ {
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
			off, err := query(3, fpos).WithPlanner(false).Run()
			if err != nil {
				t.Fatalf("%s: planner off: %v", label, err)
			}
			on, err := query(3, fpos).WithPlanner(true).Run()
			if err != nil {
				t.Fatalf("%s: planner on: %v", label, err)
			}
			requireSameTable(t, label, off, on)
			if (len(off.Rows) == 0) != tc.empty {
				t.Fatalf("%s: %d result rows, want empty=%v", label, len(off.Rows), tc.empty)
			}

			blocks := make([]*ColumnBlock, len(scans))
			failPos := make([][]int32, len(scans))
			lj, rj := make([]int, len(joins)), make([]int, len(joins))
			for s, tbl := range scans {
				if blocks[s], err = decodeTable(tbl); err != nil {
					t.Fatal(err)
				}
				vcol, _ := tbl.ColIndex("v")
				failPos[s] = make([]int32, tbl.Len())
				for i, row := range tbl.Rows {
					failPos[s][i] = failNever
					if s == fpos && row[vcol].AsInt() < 1 {
						failPos[s][i] = int32(fpos)
					}
				}
			}
			for p, jn := range joins {
				lj[p], _ = scans[jn.leftScan].ColIndex(jn.leftCol)
				rj[p], _ = scans[p+1].ColIndex(jn.rightCol)
			}
			lens := canonLens(blocks, failPos, joins, lj, rj)
			for p := range joins {
				written, err := query(p, fpos).WithPlanner(false).Count()
				if err != nil {
					t.Fatal(err)
				}
				if lens[p] != int64(written) {
					t.Fatalf("%s: canonLens[%d] = %d, the written intermediate has %d rows (build side of join %d: counted %v, written %v)",
						label, p, lens[p], written, p, lens[p] < int64(scans[p+1].Len()), written < scans[p+1].Len())
				}
			}
		}
	}
}
