package engine

import (
	"errors"
	"testing"
	"testing/quick"

	"modeldata/internal/engine/plan"
)

func peopleTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustNewTable("person", Schema{
		{Name: "pid", Type: TypeInt},
		{Name: "name", Type: TypeString},
		{Name: "age", Type: TypeInt},
		{Name: "income", Type: TypeFloat},
	})
	tbl.MustInsert(Int(1), Str("ann"), Int(3), Float(0))
	tbl.MustInsert(Int(2), Str("bob"), Int(34), Float(52000))
	tbl.MustInsert(Int(3), Str("cal"), Int(4), Float(0))
	tbl.MustInsert(Int(4), Str("dee"), Int(61), Float(31000))
	tbl.MustInsert(Int(5), Str("eve"), Int(29), Float(78000))
	return tbl
}

func TestValueAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 || Float(2.5).AsFloat() != 2.5 ||
		Str("x").AsString() != "x" || !Bool(true).AsBool() {
		t.Fatal("accessors broken")
	}
	if Float(9.9).AsInt() != 9 {
		t.Fatal("float truncation broken")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Fatal("int widening broken")
	}
}

func TestValuePanicsOnWrongType(t *testing.T) {
	cases := []func(){
		func() { Str("x").AsInt() },
		func() { Bool(true).AsFloat() },
		func() { Int(1).AsString() },
		func() { Float(1).AsBool() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3)) || Int(3).Equal(Float(3.5)) {
		t.Fatal("numeric cross-type equality broken")
	}
	if Int(1).Equal(Str("1")) {
		t.Fatal("int should not equal string")
	}
	if Int(3).Key() != Float(3).Key() {
		t.Fatal("numeric keys should match")
	}
}

func TestValueLessTotalOrderProperty(t *testing.T) {
	err := quick.Check(func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		// Exactly one of <, =, > holds.
		n := 0
		if va.Less(vb) {
			n++
		}
		if vb.Less(va) {
			n++
		}
		if va.Equal(vb) {
			n++
		}
		return n == 1
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchemaValidation(t *testing.T) {
	_, err := NewTable("t", Schema{{Name: "a", Type: TypeInt}, {Name: "A", Type: TypeInt}})
	if !errors.Is(err, ErrDupeColumn) {
		t.Fatalf("got %v, want ErrDupeColumn", err)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	tbl := MustNewTable("t", Schema{{Name: "a", Type: TypeInt}})
	if err := tbl.Insert(Row{Str("nope")}); !errors.Is(err, ErrTypeClash) {
		t.Fatalf("got %v, want ErrTypeClash", err)
	}
	if err := tbl.Insert(Row{Int(1), Int(2)}); !errors.Is(err, ErrArity) {
		t.Fatalf("got %v, want ErrArity", err)
	}
}

func TestInsertIntWidensToFloat(t *testing.T) {
	tbl := MustNewTable("t", Schema{{Name: "x", Type: TypeFloat}})
	if err := tbl.Insert(Row{Int(5)}); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][0].Type() != TypeFloat || tbl.Rows[0][0].AsFloat() != 5 {
		t.Fatal("int was not widened to float")
	}
}

func TestSelectProject(t *testing.T) {
	p := peopleTable(t)
	kids := From(p).WhereExpr(plan.Cmp{Op: "<=", Col: "age", Val: plan.IntLit(4)}).MustRun()
	if kids.Len() != 2 {
		t.Fatalf("kids = %d rows", kids.Len())
	}
	names, err := From(kids).Select("name").Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(names.Schema) != 1 || names.Rows[0][0].AsString() != "ann" {
		t.Fatalf("project wrong: %v", names)
	}
	if _, err := From(p).Select("nope").Run(); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("got %v, want ErrNoColumn", err)
	}
}

func TestEquiJoin(t *testing.T) {
	p := peopleTable(t)
	orders := MustNewTable("orders", Schema{
		{Name: "pid", Type: TypeInt},
		{Name: "amount", Type: TypeFloat},
	})
	orders.MustInsert(Int(2), Float(10))
	orders.MustInsert(Int(2), Float(20))
	orders.MustInsert(Int(5), Float(5))
	orders.MustInsert(Int(99), Float(1)) // dangling

	j, err := From(p).Join(orders, "pid", "pid").Run()
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("join rows = %d, want 3", j.Len())
	}
	if _, err := j.ColIndex("person.name"); err != nil {
		t.Fatalf("prefixed column missing: %v", err)
	}
	// Join columns carry correct pairing.
	for _, r := range j.Rows {
		pidL, _ := j.ColIndex("person.pid")
		pidR, _ := j.ColIndex("orders.pid")
		if !r[pidL].Equal(r[pidR]) {
			t.Fatal("join produced mismatched keys")
		}
	}
}

func TestEquiJoinBuildSideSymmetry(t *testing.T) {
	// The hash join picks the smaller side to build; results must not
	// depend on which side that is.
	small := MustNewTable("s", Schema{{Name: "k", Type: TypeInt}})
	small.MustInsert(Int(1))
	big := MustNewTable("b", Schema{{Name: "k", Type: TypeInt}})
	for i := 0; i < 10; i++ {
		big.MustInsert(Int(int64(i % 2)))
	}
	j1, err := From(small).Join(big, "k", "k").Run()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := From(big).Join(small, "k", "k").Run()
	if err != nil {
		t.Fatal(err)
	}
	if j1.Len() != 5 || j2.Len() != 5 {
		t.Fatalf("asymmetric join: %d vs %d", j1.Len(), j2.Len())
	}
	// Left columns of j1 must come from "s".
	if j1.Schema[0].Name != "s.k" || j2.Schema[0].Name != "b.k" {
		t.Fatalf("schemas: %v / %v", j1.Schema, j2.Schema)
	}
}

func TestGroupByAggregates(t *testing.T) {
	p := peopleTable(t)
	grouped, err := From(p).GroupBy(nil,
		Aggregate{Fn: AggCount, As: "n"},
		Aggregate{Fn: AggSum, Col: "income", As: "total"},
		Aggregate{Fn: AggAvg, Col: "age", As: "avg_age"},
		Aggregate{Fn: AggMin, Col: "age", As: "min_age"},
		Aggregate{Fn: AggMax, Col: "income", As: "max_inc"},
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if grouped.Len() != 1 {
		t.Fatalf("global group rows = %d", grouped.Len())
	}
	r := grouped.Rows[0]
	if r[0].AsInt() != 5 {
		t.Errorf("count = %d", r[0].AsInt())
	}
	if r[1].AsFloat() != 161000 {
		t.Errorf("sum = %g", r[1].AsFloat())
	}
	if r[2].AsFloat() != (3+34+4+61+29)/5.0 {
		t.Errorf("avg = %g", r[2].AsFloat())
	}
	if r[3].AsInt() != 3 {
		t.Errorf("min = %d", r[3].AsInt())
	}
	if r[4].AsFloat() != 78000 {
		t.Errorf("max = %g", r[4].AsFloat())
	}
}

func TestGroupByKeys(t *testing.T) {
	tbl := MustNewTable("sales", Schema{
		{Name: "region", Type: TypeString},
		{Name: "amt", Type: TypeFloat},
	})
	tbl.MustInsert(Str("east"), Float(10))
	tbl.MustInsert(Str("west"), Float(20))
	tbl.MustInsert(Str("east"), Float(30))
	g, err := From(tbl).GroupBy([]string{"region"}, Aggregate{Fn: AggSum, Col: "amt", As: "total"}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	// First-appearance order: east then west.
	if g.Rows[0][0].AsString() != "east" || g.Rows[0][1].AsFloat() != 40 {
		t.Fatalf("east group = %v", g.Rows[0])
	}
}

func TestGroupByEmptyGlobal(t *testing.T) {
	tbl := MustNewTable("empty", Schema{{Name: "x", Type: TypeInt}})
	g, err := From(tbl).GroupBy(nil, Aggregate{Fn: AggCount, As: "n"}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || g.Rows[0][0].AsInt() != 0 {
		t.Fatalf("COUNT(*) over empty = %v", g.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	p := peopleTable(t)
	sorted, err := From(p).OrderBy("age", true).Run()
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Rows[0][1].AsString() != "dee" {
		t.Fatalf("oldest = %v", sorted.Rows[0])
	}
	top2 := From(sorted).Limit(2).MustRun()
	if top2.Len() != 2 {
		t.Fatalf("limit = %d", top2.Len())
	}
	if From(p).Limit(100).MustRun().Len() != 5 || From(p).Limit(-1).MustRun().Len() != 0 {
		t.Fatal("limit edge cases")
	}
}

func TestOrderByStable(t *testing.T) {
	tbl := MustNewTable("t", Schema{
		{Name: "k", Type: TypeInt}, {Name: "seq", Type: TypeInt},
	})
	for i := 0; i < 10; i++ {
		tbl.MustInsert(Int(int64(i%2)), Int(int64(i)))
	}
	sorted, err := From(tbl).OrderBy("k", false).Run()
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, r := range sorted.Rows[:5] { // all k=0, seq must stay ascending
		if r[1].AsInt() < prev {
			t.Fatal("sort not stable")
		}
		prev = r[1].AsInt()
	}
}

func TestRename(t *testing.T) {
	p := peopleTable(t)
	r, err := From(p).Rename("pid", "id").Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ColIndex("id"); err != nil {
		t.Fatal("renamed column missing")
	}
	if _, err := p.ColIndex("pid"); err != nil {
		t.Fatal("rename mutated the original")
	}
}

func TestQueryBuilder(t *testing.T) {
	p := peopleTable(t)
	// "Preschoolers" per Algorithm 1: 0 <= age <= 4.
	res, err := From(p).
		WhereExpr(plan.Between{Col: "age", Lo: plan.IntLit(0), Hi: plan.IntLit(4)}).
		Select("pid").
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("preschoolers = %d", res.Len())
	}
	n, err := From(p).WhereEq("name", Str("bob")).Count()
	if err != nil || n != 1 {
		t.Fatalf("count = %d err = %v", n, err)
	}
}

func TestQueryErrorLatching(t *testing.T) {
	p := peopleTable(t)
	_, err := From(p).Select("nope").WhereEq("name", Str("x")).Run()
	if !errors.Is(err, ErrNoColumn) {
		t.Fatalf("got %v, want latched ErrNoColumn", err)
	}
}

func TestQueryScalarFloat(t *testing.T) {
	p := peopleTable(t)
	total, err := From(p).GroupBy(nil, Aggregate{Fn: AggSum, Col: "income", As: "s"}).ScalarFloat()
	if err != nil {
		t.Fatal(err)
	}
	if total != 161000 {
		t.Fatalf("scalar = %g", total)
	}
	if _, err := From(p).ScalarFloat(); err == nil {
		t.Fatal("multi-row scalar should error")
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	db.Put(peopleTable(t))
	tbl, err := db.Get("PERSON") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 5 {
		t.Fatal("wrong table")
	}
	// A clone shares the (immutable) rows under headers of its own:
	// Insert, Put and Drop on either side are invisible to the other, and
	// the original's row list is left exactly as it was.
	db.Put(MustNewTable("extra", Schema{{Name: "x", Type: TypeInt}}))
	orig, _ := db.Get("person")
	wantLen, wantCap := len(orig.Rows), cap(orig.Rows)
	clone := db.Clone()
	ct, _ := clone.Get("person")
	if ct == orig || ct.Len() != 5 || &ct.Rows[0][0] != &orig.Rows[0][0] || !ct.Schema.Equal(orig.Schema) {
		t.Fatal("clone does not hold the original's rows under its own header")
	}
	ct.MustInsert(Int(6), Str("fay"), Int(40), Float(1))
	if len(orig.Rows) != wantLen || cap(orig.Rows) != wantCap {
		t.Fatalf("Insert on the clone changed the original's row list: len %d cap %d", len(orig.Rows), cap(orig.Rows))
	}
	orig.MustInsert(Int(7), Str("gus"), Int(41), Float(2))
	if ct.Len() != 6 || orig.Len() != 6 || ct.Rows[5][1].AsString() != "fay" || orig.Rows[5][1].AsString() != "gus" {
		t.Fatalf("Insert crossed the clone boundary: clone %v, original %v", ct.Rows[5], orig.Rows[5])
	}
	clone.Drop("extra")
	clone.Put(MustNewTable("mine", Schema{{Name: "x", Type: TypeInt}}))
	db.Put(MustNewTable("theirs", Schema{{Name: "x", Type: TypeInt}}))
	if _, err := db.Get("extra"); err != nil {
		t.Fatal("Drop on the clone reached the original")
	}
	if _, err := db.Get("mine"); !errors.Is(err, ErrNoTable) {
		t.Fatal("Put on the clone reached the original")
	}
	if _, err := clone.Get("theirs"); !errors.Is(err, ErrNoTable) {
		t.Fatal("Put on the original reached the clone")
	}
	// Table.Clone stays the deep copy: its cells may be written.
	deep := orig.Clone()
	deep.Rows[0][1] = Str("mutated")
	if orig.Rows[0][1].AsString() != "ann" {
		t.Fatal("Table.Clone is not deep")
	}
	db.Drop("extra")
	db.Drop("theirs")
	db.Drop("person")
	if _, err := db.Get("person"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("got %v, want ErrNoTable", err)
	}
	if len(db.tables) != 0 {
		t.Fatal("tables left after drop")
	}
}

// TestDatabaseCloneAllocs pins that cloning copies no row: a database
// holding a 10^5-row table clones in O(tables) allocations.
func TestDatabaseCloneAllocs(t *testing.T) {
	db := NewDatabase()
	big := MustNewTable("big", Schema{{Name: "x", Type: TypeInt}})
	for i := 0; i < 100_000; i++ {
		big.MustInsert(Int(int64(i)))
	}
	db.Put(big)
	db.Put(peopleTable(t))
	var clone *Database
	allocs := testing.AllocsPerRun(10, func() { clone = db.Clone() })
	if allocs > 16 {
		t.Fatalf("Clone of a 100000-row database: %.0f allocations, want O(tables)", allocs)
	}
	ct, _ := clone.Get("big")
	if ct.Len() != 100_000 || &ct.Rows[0][0] != &big.Rows[0][0] {
		t.Fatal("clone does not share the original's rows")
	}
}

func TestTableString(t *testing.T) {
	p := peopleTable(t)
	s := p.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	big := MustNewTable("big", Schema{{Name: "x", Type: TypeInt}})
	for i := 0; i < 30; i++ {
		big.MustInsert(Int(int64(i)))
	}
	if got := big.String(); len(got) == 0 {
		t.Fatal("big table String()")
	}
}

func TestFloatColumn(t *testing.T) {
	p := peopleTable(t)
	ages, err := p.FloatColumn("age")
	if err != nil {
		t.Fatal(err)
	}
	if len(ages) != 5 || ages[0] != 3 {
		t.Fatalf("ages = %v", ages)
	}
	if _, err := p.FloatColumn("name"); !errors.Is(err, ErrTypeClash) {
		t.Fatalf("got %v, want ErrTypeClash", err)
	}
}
