package engine

import (
	"fmt"
	"testing"
)

// repeatRuns is how many times each determinism test re-executes the
// same query. Map iteration order changes between runs inside a single
// process, so ten repetitions reliably catch ordered output that leaks
// map order. CI additionally runs these tests under -race, which
// exercises the parallel self-join's goroutines.
const repeatRuns = 10

// salesTable builds a deterministic table with many rows per group key
// so that group-by and join operators have real map pressure.
func salesTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustNewTable("sales", Schema{
		{Name: "id", Type: TypeInt},
		{Name: "region", Type: TypeString},
		{Name: "cell", Type: TypeInt},
		{Name: "amt", Type: TypeFloat},
	})
	regions := []string{"east", "west", "north", "south", "central"}
	for i := 0; i < 200; i++ {
		tbl.MustInsert(
			Int(int64(i)),
			Str(regions[i%len(regions)]),
			Int(int64(i%7)),
			Float(float64(i*i%101)),
		)
	}
	return tbl
}

// render flattens a table into one comparable string including row
// order, so any reordering between runs shows up as an inequality.
func render(tbl *Table) string {
	out := ""
	for _, c := range tbl.Schema {
		out += c.Name + "|"
	}
	for _, r := range tbl.Rows {
		out += "\n"
		for _, v := range r {
			out += v.Key() + "|"
		}
	}
	return out
}

// TestQueryRowOrderStable runs the same GROUP BY query ten times over
// the same database and requires byte-identical results, including row
// order. GroupBy buckets rows in a map; output must follow the
// recorded first-appearance order, never map iteration order.
func TestQueryRowOrderStable(t *testing.T) {
	db := NewDatabase()
	db.Put(salesTable(t))
	const q = `SELECT region, COUNT(id) AS n, SUM(amt) AS total FROM sales GROUP BY region`

	first := ""
	for run := 0; run < repeatRuns; run++ {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := render(res)
		if run == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d produced different output:\nfirst:\n%s\n\nrun %d:\n%s", run, first, run, got)
		}
	}
}

// TestGroupByManyKeysStable is the higher-cardinality variant: with
// 35 distinct (region, cell) groups, map iteration order is virtually
// guaranteed to differ between runs if it leaks into the output.
func TestGroupByManyKeysStable(t *testing.T) {
	tbl := salesTable(t)
	first := ""
	for run := 0; run < repeatRuns; run++ {
		g, err := From(tbl).GroupBy([]string{"region", "cell"},
			Aggregate{Fn: AggCount, As: "n"},
			Aggregate{Fn: AggSum, Col: "amt", As: "total"},
		).Run()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := render(g)
		if run == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d: group order changed between identical runs", run)
		}
	}
}

// TestDatabaseNamesStable requires Names to return the same sorted
// slice regardless of insertion order into the catalog map.
func TestDatabaseNamesStable(t *testing.T) {
	mk := func(names ...string) *Database {
		db := NewDatabase()
		for _, n := range names {
			db.Put(MustNewTable(n, Schema{{Name: "x", Type: TypeInt}}))
		}
		return db
	}
	a := mk("zeta", "alpha", "mid")
	b := mk("mid", "zeta", "alpha")
	want := fmt.Sprintf("%v", []string{"alpha", "mid", "zeta"})
	if got := fmt.Sprintf("%v", a.Names()); got != want {
		t.Fatalf("Names() = %s, want %s", got, want)
	}
	if got := fmt.Sprintf("%v", b.Names()); got != fmt.Sprintf("%v", a.Names()) {
		t.Fatalf("Names() depends on insertion order: %s vs %v", got, a.Names())
	}
}
