package colstore_test

// Regression tests for zone-map pruning through leading projections and
// renames. Query.leadingFilterExpr historically stopped at the first
// non-filter operation, so a leading Select or Rename silently disabled
// pruning even though the filters after it still restricted stored
// columns; every block was decoded and the only symptom was a quiet
// slowdown. The pruning hint now maps current column names back to
// stored names across the leading Select/Rename run, and these goldens
// pin that EXPLAIN reports real pruning for such queries.

import (
	"strings"
	"testing"

	"modeldata/internal/colstore"
	"modeldata/internal/engine"
	"modeldata/internal/engine/plan"
)

// explainText renders a query's EXPLAIN tree.
func explainText(t *testing.T, q *engine.Query) string {
	t.Helper()
	tree, err := q.Explain()
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	return tree.Text()
}

// requirePruned asserts the EXPLAIN output shows the expected pruning
// annotation — the golden for "pruning fired".
func requirePruned(t *testing.T, text, want string) {
	t.Helper()
	if !strings.Contains(text, "partitions=10") || !strings.Contains(text, want) {
		t.Fatalf("Explain missing %q (pruning did not fire):\n%s", want, text)
	}
}

func TestPruningSurvivesLeadingSelect(t *testing.T) {
	tbl := seqTable("z", 1000)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 100})
	pred := plan.Between{Col: "id", Lo: plan.IntLit(250), Hi: plan.IntLit(349)}

	// Filter *after* a projection: the filter column is still a stored
	// column, so 8 of 10 segments must be pruned, same as the
	// filter-first query — two blocks each, the two columns the scan
	// projects.
	q := engine.FromStorage(st).Select("id", "x").WhereExpr(pred)
	requirePruned(t, explainText(t, q), "blocks_pruned=16")

	// Pruning stays invisible in results.
	want, err := engine.From(tbl).Select("id", "x").WhereExpr(pred).Run()
	if err != nil {
		t.Fatalf("in-memory Run: %v", err)
	}
	got, err := q.Run()
	if err != nil {
		t.Fatalf("storage Run: %v", err)
	}
	requireSameTable(t, "select-then-filter", want, got)
}

func TestPruningSurvivesLeadingRename(t *testing.T) {
	tbl := seqTable("z", 1000)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 100})
	pred := plan.Between{Col: "key", Lo: plan.IntLit(250), Hi: plan.IntLit(349)}

	// The filter references the renamed column; the pruning hint must
	// map "key" back to the stored column "id".
	q := engine.FromStorage(st).Rename("id", "key").WhereExpr(pred)
	requirePruned(t, explainText(t, q), "blocks_pruned=32")

	want, err := engine.From(tbl).Rename("id", "key").WhereExpr(pred).Run()
	if err != nil {
		t.Fatalf("in-memory Run: %v", err)
	}
	got, err := q.Run()
	if err != nil {
		t.Fatalf("storage Run: %v", err)
	}
	requireSameTable(t, "rename-then-filter", want, got)
}

func TestPruningMapsSwappedNamesCorrectly(t *testing.T) {
	// The adversarial case for name mapping: after Rename(id→key) and
	// Rename(x→id), the current name "id" refers to the STORED column
	// x. A filter on current-"id" must prune against x's zone maps (x =
	// i/8, so [10,12] hits only segment 0 → 9 segments × 4 blocks
	// pruned), and results must match the in-memory run exactly.
	tbl := seqTable("z", 1000)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 100})
	pred := plan.Between{Col: "id", Lo: plan.IntLit(10), Hi: plan.IntLit(12)}

	q := engine.FromStorage(st).Rename("id", "key").Rename("x", "id").WhereExpr(pred)
	requirePruned(t, explainText(t, q), "blocks_pruned=36")

	want, err := engine.From(tbl).Rename("id", "key").Rename("x", "id").WhereExpr(pred).Run()
	if err != nil {
		t.Fatalf("in-memory Run: %v", err)
	}
	got, err := q.Run()
	if err != nil {
		t.Fatalf("storage Run: %v", err)
	}
	requireSameTable(t, "swapped-rename filter", want, got)
}

func TestPruningStopsAtReshapingOps(t *testing.T) {
	// Operations that change row content or multiplicity end the
	// leading run: a filter after GroupBy must contribute nothing to
	// the hint (its column no longer maps to stored data).
	tbl := seqTable("z", 1000)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 100})
	q := engine.FromStorage(st).
		GroupBy([]string{"tag"}, engine.Aggregate{Fn: engine.AggCount, As: "n"}).
		WhereExpr(plan.Cmp{Op: ">", Col: "n", Val: plan.IntLit(0)})
	text := explainText(t, q)
	if strings.Contains(text, "blocks_pruned=") {
		t.Fatalf("post-aggregate filter should prune nothing:\n%s", text)
	}
}
