package engine

import (
	"fmt"
	"reflect"
	"testing"

	"modeldata/internal/prov"
)

func provTestTables() (*Table, *Table) {
	people := MustNewTable("people", Schema{
		{Name: "pid", Type: TypeInt},
		{Name: "city", Type: TypeString},
		{Name: "age", Type: TypeFloat},
	})
	people.MustInsert(Int(1), Str("oslo"), Float(30))
	people.MustInsert(Int(2), Str("rome"), Float(40))
	people.MustInsert(Int(3), Str("oslo"), Float(50))
	people.MustInsert(Int(4), Str("rome"), Float(60))

	visits := MustNewTable("visits", Schema{
		{Name: "pid", Type: TypeInt},
		{Name: "site", Type: TypeString},
	})
	visits.MustInsert(Int(1), Str("a"))
	visits.MustInsert(Int(2), Str("b"))
	visits.MustInsert(Int(2), Str("c"))
	visits.MustInsert(Int(4), Str("d"))
	return people, visits
}

func leavesOf(t *testing.T, res *Table, row int) []prov.Leaf {
	t.Helper()
	ls, ok := res.Lineage(row)
	if !ok {
		t.Fatalf("Lineage(%d) not available", row)
	}
	return ls
}

// TestProvFilterSelect: filters and projections keep per-row source
// lineage intact, and the visible output matches a provenance-free run.
func TestProvFilterSelect(t *testing.T) {
	people, _ := provTestTables()
	q := From(people).
		WhereFloat("age", func(a float64) bool { return a >= 40 }).
		Select("pid", "city")
	plain := q.MustRun()
	res := q.WithProvenance().MustRun()
	if !tablesEqualForTest(plain, res) {
		t.Fatalf("provenance changed visible output:\n%v\nvs\n%v", plain, res)
	}
	if !res.HasLineage() {
		t.Fatal("result has no lineage")
	}
	// Rows 40, 50, 60 are people rows 1, 2, 3.
	for i, want := range []int{1, 2, 3} {
		if got := leavesOf(t, res, i); !reflect.DeepEqual(got, []prov.Leaf{{Table: "people", Row: want}}) {
			t.Fatalf("row %d lineage = %v, want people:%d", i, got, want)
		}
	}
	if _, ok := plain.Lineage(0); ok {
		t.Fatal("plain run unexpectedly carries lineage")
	}
}

// TestProvJoin: each joined row's lineage is the union of both sides'
// source rows, on the planner-on and planner-off paths alike.
func TestProvJoin(t *testing.T) {
	people, visits := provTestTables()
	for _, plannerOn := range []bool{true, false} {
		q := From(people).
			Join(visits, "pid", "pid").
			WithPlanner(plannerOn).
			WithProvenance()
		res := q.MustRun()
		plain := From(people).Join(visits, "pid", "pid").WithPlanner(plannerOn).MustRun()
		if !tablesEqualForTest(plain, res) {
			t.Fatalf("planner=%v: provenance changed join output", plannerOn)
		}
		// Join emits probe order: people 1-v0, 2-v1, 2-v2, 4-v3.
		want := [][]prov.Leaf{
			{{Table: "people", Row: 0}, {Table: "visits", Row: 0}},
			{{Table: "people", Row: 1}, {Table: "visits", Row: 1}},
			{{Table: "people", Row: 1}, {Table: "visits", Row: 2}},
			{{Table: "people", Row: 3}, {Table: "visits", Row: 3}},
		}
		if res.Len() != len(want) {
			t.Fatalf("planner=%v: %d rows, want %d", plannerOn, res.Len(), len(want))
		}
		for i, w := range want {
			if got := leavesOf(t, res, i); !reflect.DeepEqual(got, w) {
				t.Fatalf("planner=%v row %d lineage = %v, want %v", plannerOn, i, got, w)
			}
		}
	}
}

// TestProvGroupBy: group annotations are the union of every member
// row's lineage, through joins.
func TestProvGroupBy(t *testing.T) {
	people, visits := provTestTables()
	q := From(people).
		Join(visits, "pid", "pid").
		GroupBy([]string{"people.city"}, Aggregate{Fn: AggCount, Col: "", As: "n"}).
		WithProvenance()
	res := q.MustRun()
	// Groups in first appearance order: oslo (people 0 × visits 0),
	// rome (people 1 × visits 1,2; people 3 × visits 3).
	want := [][]prov.Leaf{
		{{Table: "people", Row: 0}, {Table: "visits", Row: 0}},
		{{Table: "people", Row: 1}, {Table: "people", Row: 3}, {Table: "visits", Row: 1}, {Table: "visits", Row: 2}, {Table: "visits", Row: 3}},
	}
	if res.Len() != 2 {
		t.Fatalf("got %d groups, want 2:\n%v", res.Len(), res)
	}
	for i, w := range want {
		if got := leavesOf(t, res, i); !reflect.DeepEqual(got, w) {
			t.Fatalf("group %d lineage = %v, want %v", i, got, w)
		}
	}
}

// TestProvDistinct: duplicates merge their lineage into the kept row.
func TestProvDistinct(t *testing.T) {
	people, _ := provTestTables()
	q := From(people).Select("city").Distinct().WithProvenance()
	res := q.MustRun()
	want := [][]prov.Leaf{
		{{Table: "people", Row: 0}, {Table: "people", Row: 2}}, // oslo
		{{Table: "people", Row: 1}, {Table: "people", Row: 3}}, // rome
	}
	if res.Len() != 2 {
		t.Fatalf("got %d rows, want 2", res.Len())
	}
	for i, w := range want {
		if got := leavesOf(t, res, i); !reflect.DeepEqual(got, w) {
			t.Fatalf("row %d lineage = %v, want %v", i, got, w)
		}
	}
}

// TestProvEmptyAggregate: the synthesized global group over empty
// input has empty lineage, not a failure.
func TestProvEmptyAggregate(t *testing.T) {
	people, _ := provTestTables()
	res := From(people).
		WhereFloat("age", func(a float64) bool { return a > 1000 }).
		GroupBy(nil, Aggregate{Fn: AggCount, As: "n"}).
		WithProvenance().
		MustRun()
	if res.Len() != 1 || res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("unexpected empty aggregate: %v", res)
	}
	if got := leavesOf(t, res, 0); len(got) != 0 {
		t.Fatalf("empty group lineage = %v, want empty", got)
	}
}

// TestProvPlannerReorderInvariance: a three-way join whose cost-chosen
// order differs from the written order must yield identical lineage to
// the planner-off run, because the semiring is order-insensitive.
func TestProvPlannerReorderInvariance(t *testing.T) {
	big := MustNewTable("big", Schema{{Name: "k", Type: TypeInt}, {Name: "x", Type: TypeInt}})
	for i := 0; i < 200; i++ {
		big.MustInsert(Int(int64(i%10)), Int(int64(i)))
	}
	mid := MustNewTable("mid", Schema{{Name: "k", Type: TypeInt}, {Name: "m", Type: TypeInt}})
	for i := 0; i < 20; i++ {
		mid.MustInsert(Int(int64(i%10)), Int(int64(i)))
	}
	small := MustNewTable("small", Schema{{Name: "k", Type: TypeInt}, {Name: "s", Type: TypeInt}})
	for i := 0; i < 3; i++ {
		small.MustInsert(Int(int64(i)), Int(int64(100+i)))
	}
	build := func(plannerOn bool) *Table {
		return From(big).
			Join(mid, "k", "k").
			Join(small, "big.k", "k").
			WithPlanner(plannerOn).
			WithProvenance().
			MustRun()
	}
	on, off := build(true), build(false)
	if !tablesEqualForTest(on, off) {
		t.Fatal("planner changed visible output under provenance")
	}
	for i := 0; i < on.Len(); i++ {
		lon, loff := leavesOf(t, on, i), leavesOf(t, off, i)
		if !reflect.DeepEqual(lon, loff) {
			t.Fatalf("row %d lineage differs: planner-on %v vs planner-off %v", i, lon, loff)
		}
	}
}

// TestProvStorageBacked: storage-backed scans annotate rows with
// indexes into the full stored relation.
func TestProvStorageBacked(t *testing.T) {
	people, _ := provTestTables()
	res := FromStorage(people).
		WhereString("city", func(s string) bool { return s == "rome" }).
		Select("pid").
		WithProvenance().
		MustRun()
	want := [][]prov.Leaf{
		{{Table: "people", Row: 1}},
		{{Table: "people", Row: 3}},
	}
	if res.Len() != 2 {
		t.Fatalf("got %d rows, want 2", res.Len())
	}
	for i, w := range want {
		if got := leavesOf(t, res, i); !reflect.DeepEqual(got, w) {
			t.Fatalf("row %d lineage = %v, want %v", i, got, w)
		}
	}
}

// TestProvRowPathFallback: the row half of provenance went with the row
// route, so under WithProvenance too a mixed table is refused.
func TestProvRowPathFallback(t *testing.T) { requireShapesRefused(t, true) }

// TestProvOutputUnchangedRandomized: across a grid of pipeline shapes,
// WithProvenance never changes the visible result.
func TestProvOutputUnchangedRandomized(t *testing.T) {
	people, visits := provTestTables()
	shapes := []func() *Query{
		func() *Query { return From(people).WhereEq("city", Str("oslo")) },
		func() *Query { return From(people).Select("city", "age").OrderBy("age", true).Limit(2) },
		func() *Query {
			return From(people).Rename("age", "years").WhereFloat("years", func(a float64) bool { return a < 55 })
		},
		func() *Query {
			return From(people).Join(visits, "pid", "pid").GroupBy([]string{"visits.site"}, Aggregate{Fn: AggCount, As: "n"})
		},
		func() *Query { return From(people).Select("city").Distinct().OrderBy("city", false) },
		func() *Query {
			return From(people).Extend("older", TypeFloat, func(r Row) Value { return Float(r[2].AsFloat() + 1) }).Limit(3)
		},
		func() *Query { return From(people).Where(func(r Row) bool { return r[0].AsInt()%2 == 1 }) },
	}
	for si, mk := range shapes {
		for _, plannerOn := range []bool{true, false} {
			t.Run(fmt.Sprintf("shape%d_planner%v", si, plannerOn), func(t *testing.T) {
				plain := mk().WithPlanner(plannerOn).MustRun()
				withP := mk().WithPlanner(plannerOn).WithProvenance().MustRun()
				if !tablesEqualForTest(plain, withP) {
					t.Fatalf("visible output differs:\n%v\nvs\n%v", plain, withP)
				}
				if !withP.HasLineage() {
					t.Fatal("no lineage recorded")
				}
			})
		}
	}
}

// tablesEqualForTest compares two tables for identical schema, rows,
// and Value payloads.
func tablesEqualForTest(a, b *Table) bool {
	if !a.Schema.Equal(b.Schema) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}
