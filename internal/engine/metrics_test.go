package engine

import (
	"errors"
	"strings"
	"testing"

	"modeldata/internal/engine/plan"
	"modeldata/internal/obs"
)

// mixedTable returns a hand-assembled table whose float column carries
// a dynamically typed int value — the one way to break the
// executable-table rule, since Insert would have widened it.
func mixedTable() *Table {
	return &Table{
		Name: "mixed",
		Schema: Schema{
			{Name: "id", Type: TypeInt},
			{Name: "x", Type: TypeFloat},
		},
		Rows: []Row{
			{Int(1), Float(1.5)},
			{Int(2), Int(7)}, // int in a float column: not executable
			{Int(3), Float(-2)},
		},
	}
}

// requireRefused runs fn, which must fail with an ErrMixedColumn naming
// the offending column, row and dynamic type, and must advance
// engine.colfallback by exactly one.
func requireRefused(t *testing.T, label string, fn func() error) {
	t.Helper()
	before := colFallbacks.Value()
	err := fn()
	if !errors.Is(err, ErrMixedColumn) {
		t.Fatalf("%s: got %v, want ErrMixedColumn", label, err)
	}
	for _, part := range []string{`"mixed"`, `column "x" row 1 is INT`} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("%s: error %q does not name %s", label, err, part)
		}
	}
	if grew := colFallbacks.Value() - before; grew != 1 {
		t.Fatalf("%s: engine.colfallback advanced by %d, want 1", label, grew)
	}
}

// requireShapesRefused pins the executable-table rule that replaced the
// row fallback: a mixed table anywhere in a query — the source, the
// right side of a join (which once fell back to rows with no counter at
// all), a later scan of a planned region — refuses Run and Count loudly
// instead of running them on a slow route, whether the source is a
// table the planner plans or a storage that runs as written.
func requireShapesRefused(t *testing.T) {
	clean := MustNewTable("clean", Schema{{Name: "id", Type: TypeInt}})
	clean.MustInsert(Int(1))
	clean.MustInsert(Int(2))
	positive := plan.Cmp{Op: ">", Col: "x", Val: plan.FloatLit(0)}
	fromStorage := func(t *Table) *Query { return FromStorage(t) }
	for src, from := range map[string]func(*Table) *Query{"From": From, "FromStorage": fromStorage} {
		shapes := map[string]*Query{
			"source":      from(mixedTable()).WhereExpr(positive).Select("id").Distinct(),
			"join right":  from(clean).Join(mixedTable(), "id", "id"),
			"second join": from(clean).Join(clean, "id", "id").Join(mixedTable(), "clean.id", "id"),
			"after group": from(clean).GroupBy([]string{"id"}, Aggregate{Fn: AggCount, As: "n"}).Join(mixedTable(), "id", "id"),
		}
		for name, q := range shapes {
			label := name + " " + src
			requireRefused(t, label+" Run", func() error { _, err := q.Run(); return err })
			requireRefused(t, label+" Count", func() error { _, err := q.Count(); return err })
		}
	}
}

func TestColFallbackCounterFires(t *testing.T) { requireShapesRefused(t) }

// TestColFallbackSQLCounterFires drives the same refusal through the
// SQL executor.
func TestColFallbackSQLCounterFires(t *testing.T) {
	db := NewDatabase()
	db.Put(mixedTable())
	if _, err := db.Query("CREATE TABLE clean (id INT)"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT id FROM mixed",
		"SELECT COUNT(*) AS n FROM mixed WHERE x > 0",
		"SELECT clean.id FROM clean JOIN mixed ON clean.id = mixed.id",
	} {
		requireRefused(t, sql, func() error { _, err := db.Query(sql); return err })
	}
}

// TestColPathCounterFires checks the happy-path twin: a clean table
// goes columnar and counts engine.colpath, not engine.colfallback.
func TestColPathCounterFires(t *testing.T) {
	clean := &Table{
		Name: "clean",
		Schema: Schema{
			{Name: "id", Type: TypeInt},
			{Name: "x", Type: TypeFloat},
		},
		Rows: []Row{
			{Int(1), Float(1.5)},
			{Int(2), Float(2.5)},
		},
	}
	colBefore := obs.Default().Counter(MetricColQueries).Value()
	fbBefore := obs.Default().Counter(MetricColFallback).Value()
	if _, err := From(clean).WhereExpr(plan.Cmp{Op: ">", Col: "x", Val: plan.FloatLit(2)}).Run(); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter(MetricColQueries).Value(); got <= colBefore {
		t.Fatalf("engine.colpath did not advance: before=%d after=%d", colBefore, got)
	}
	if got := obs.Default().Counter(MetricColFallback).Value(); got != fbBefore {
		t.Fatalf("clean table advanced engine.colfallback: before=%d after=%d", fbBefore, got)
	}
}

// TestMetricNamesFollowScheme guards the DESIGN.md §8 naming scheme:
// engine metrics live under the "engine." prefix.
func TestMetricNamesFollowScheme(t *testing.T) {
	for _, name := range []string{MetricColFallback, MetricColQueries, MetricRowsScanned} {
		if !strings.HasPrefix(name, "engine.") {
			t.Errorf("metric %q does not carry the engine. prefix", name)
		}
	}
}
