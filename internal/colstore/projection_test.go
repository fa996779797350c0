package colstore_test

// The projection contract: a query over a store asks the storage for
// exactly the stored columns its operations can observe, filters each
// partition before concatenating, and still answers byte for byte what
// the same query over the in-memory table answers.

import (
	"context"
	"slices"
	"testing"

	"modeldata/internal/colstore"
	"modeldata/internal/engine"
	"modeldata/internal/engine/plan"
	"modeldata/internal/obs"
)

// recordingStorage records the projection and the stats of every scan
// made through it.
type recordingStorage struct {
	engine.Storage
	cols  [][]string
	iters []engine.PartitionIter
}

func (r *recordingStorage) ScanPartitions(ctx context.Context, cols []string, pred plan.Expr) (engine.PartitionIter, error) {
	r.cols = append(r.cols, cols)
	it, err := r.Storage.ScanPartitions(ctx, cols, pred)
	r.iters = append(r.iters, it)
	return it, err
}

func TestScanAsksForReferencedColumnsOnly(t *testing.T) {
	tbl := seqTable("p", 1000)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 100})
	dim := engine.MustNewTable("dim", engine.Schema{
		{Name: "jid", Type: engine.TypeInt}, {Name: "label", Type: engine.TypeString},
	})
	for i := 0; i < 30; i++ {
		dim.MustInsert(engine.Int(int64(i*7%40)), engine.Str("d"))
	}
	mid := plan.Between{Col: "id", Lo: plan.IntLit(250), Hi: plan.IntLit(349)}
	big := plan.Cmp{Col: "x", Op: ">", Val: plan.FloatLit(100)}
	all := []string(nil) // the whole row

	cases := []struct {
		name  string
		build func(*engine.Query) *engine.Query
		count bool // Count rather than Run
		cols  []string
	}{
		{"filter-only Count", func(q *engine.Query) *engine.Query { return q.WhereExpr(big) }, true, []string{"x"}},
		{"filter-only Run needs the row", func(q *engine.Query) *engine.Query { return q.WhereExpr(big) }, false, all},
		{"two filters Count", func(q *engine.Query) *engine.Query { return q.WhereExpr(big).WhereExpr(mid) }, true, []string{"id", "x"}},
		{"no operation Count", func(q *engine.Query) *engine.Query { return q }, true, []string{"id"}},
		{"filter then group-by", func(q *engine.Query) *engine.Query {
			return q.WhereExpr(mid).GroupBy([]string{"tag"}, engine.Aggregate{Fn: engine.AggCount, As: "n"},
				engine.Aggregate{Fn: engine.AggSum, Col: "x", As: "sx"})
		}, false, []string{"id", "x", "tag"}},
		{"group-by alone", func(q *engine.Query) *engine.Query {
			return q.GroupBy([]string{"flag"}, engine.Aggregate{Fn: engine.AggMax, Col: "x", As: "mx"})
		}, false, []string{"x", "flag"}},
		{"closing Select", func(q *engine.Query) *engine.Query { return q.WhereExpr(mid).Select("tag") }, false, []string{"id", "tag"}},
		{"Select before a filter", func(q *engine.Query) *engine.Query { return q.Select("x", "id").WhereExpr(mid) }, false, []string{"id", "x"}},
		{"Rename before a filter", func(q *engine.Query) *engine.Query {
			return q.Rename("id", "key").WhereExpr(plan.Between{Col: "key", Lo: plan.IntLit(250), Hi: plan.IntLit(349)}).Select("key", "flag")
		}, false, []string{"id", "flag"}},
		{"swapped names", func(q *engine.Query) *engine.Query {
			return q.Select("id", "x").Rename("id", "t").Rename("x", "id").WhereExpr(
				plan.Cmp{Col: "id", Op: ">", Val: plan.FloatLit(100)})
		}, true, []string{"id", "x"}},
		{"order and limit pass columns through", func(q *engine.Query) *engine.Query {
			return q.OrderBy("x", true).Limit(5).Select("tag")
		}, false, []string{"x", "tag"}},
		{"join", func(q *engine.Query) *engine.Query { return q.WhereExpr(mid).Join(dim, "id", "jid") }, false, all},
		{"join then Count", func(q *engine.Query) *engine.Query { return q.Join(dim, "id", "jid") }, true, all},
		{"Select then join", func(q *engine.Query) *engine.Query { return q.Select("id", "flag").Join(dim, "id", "jid") }, false, []string{"id", "flag"}},
		{"Distinct", func(q *engine.Query) *engine.Query { return q.Distinct() }, true, all},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recordingStorage{Storage: st}
			mem, disk := tc.build(engine.From(tbl)), tc.build(engine.FromStorage(rec))
			if tc.count {
				want, err := mem.Count()
				if err != nil {
					t.Fatalf("in-memory: %v", err)
				}
				got, err := disk.Count()
				if err != nil {
					t.Fatalf("storage: %v", err)
				}
				if got != want {
					t.Fatalf("count %d, want %d", got, want)
				}
			} else {
				want, err := mem.Run()
				if err != nil {
					t.Fatalf("in-memory: %v", err)
				}
				got, err := disk.Run()
				if err != nil {
					t.Fatalf("storage: %v", err)
				}
				requireSameTable(t, tc.name, want, got)
			}
			if len(rec.cols) != 1 {
				t.Fatalf("%d scans, want 1", len(rec.cols))
			}
			if got := rec.cols[0]; !slices.Equal(got, tc.cols) || (got == nil) != (tc.cols == nil) {
				t.Fatalf("scan asked for columns %v, want %v", got, tc.cols)
			}
		})
	}
}

// A scan_full-shaped query — one filter on one column, counted —
// decodes one block per segment, not one per stored column, and the
// process counters say so.
func TestFilterCountDecodesOneBlockPerSegment(t *testing.T) {
	tbl := seqTable("d", 1000)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 100})
	rec := &recordingStorage{Storage: st}
	before := obs.Default().Snapshot()
	n, err := engine.FromStorage(rec).WhereExpr(plan.Cmp{Col: "x", Op: ">", Val: plan.FloatLit(100)}).Count()
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if want := 1000 - 801; n != want { // x = id/8 > 100 ⇔ id > 800
		t.Fatalf("count %d, want %d", n, want)
	}
	d := obs.Default().Snapshot().Sub(before)
	stats := rec.iters[0].Stats()
	// Zone maps refute x > 100 for the eight segments of ids below 800.
	if stats.Scanned != 2 {
		t.Fatalf("stats %+v, want 2 segments scanned", stats)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{colstore.MetricBlocksDecoded, 2},
		{colstore.MetricBlocksPruned, 8},
		{colstore.MetricBytesRead, 2 * 100 * 8}, // two float blocks of 100 rows
	} {
		if got := d.Counters[c.name]; got != c.want {
			t.Fatalf("%s moved by %d, want %d", c.name, got, c.want)
		}
	}

	// The same filter when the rows are wanted reads all four columns.
	before = obs.Default().Snapshot()
	if _, err := engine.FromStorage(st).WhereExpr(plan.Cmp{Col: "x", Op: ">", Val: plan.FloatLit(100)}).Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := obs.Default().Snapshot().Sub(before).Counters[colstore.MetricBlocksDecoded]; got != 2*4 {
		t.Fatalf("Run decoded %d blocks, want 8", got)
	}
}

// The streamed join, which always hashes the table, has to emit in
// the order the in-memory join does, which hashes the smaller input:
// left order, whichever that is. Filters make the scan larger, smaller
// and as large as the table, and duplicate keys on both sides make
// left order differ from table order.
func TestStreamedJoinEmitsInLeftOrder(t *testing.T) {
	tbl := &engine.Table{Name: "f", Schema: engine.Schema{
		{Name: "k", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeFloat},
	}}
	for i := 0; i < 400; i++ {
		tbl.Rows = append(tbl.Rows, engine.Row{engine.Int(int64(i % 5)), engine.Float(float64(i))})
	}
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 64})
	dim := engine.MustNewTable("dim", engine.Schema{
		{Name: "jk", Type: engine.TypeInt}, {Name: "w", Type: engine.TypeInt},
	})
	for i := 0; i < 40; i++ {
		dim.MustInsert(engine.Int(int64((i*3)%7)), engine.Int(int64(i)))
	}
	for _, tc := range []struct {
		name string
		pred plan.Expr
	}{
		{"scan larger than the table", plan.Cmp{Col: "v", Op: ">=", Val: plan.IntLit(0)}},
		{"scan smaller than the table", plan.Cmp{Col: "v", Op: "<", Val: plan.IntLit(23)}},
		{"scan as large as the table", plan.Cmp{Col: "v", Op: "<", Val: plan.IntLit(40)}},
		{"scan filtered to nothing", plan.Cmp{Col: "v", Op: "<", Val: plan.IntLit(0)}},
	} {
		want, err := engine.From(tbl).WhereExpr(tc.pred).Join(dim, "k", "jk").Run()
		if err != nil {
			t.Fatalf("%s: in-memory: %v", tc.name, err)
		}
		got, err := engine.FromStorage(st).WhereExpr(tc.pred).Join(dim, "k", "jk").Run()
		if err != nil {
			t.Fatalf("%s: storage: %v", tc.name, err)
		}
		requireSameTable(t, tc.name, want, got)
	}
}

// A filter-only Count over one float column allocates per segment — a
// decoded vector, a selection, a few headers — and nothing per row.
func TestFilterCountAllocatesPerSegment(t *testing.T) {
	const rows, segRows = 1 << 16, 1 << 12
	tbl := &engine.Table{Name: "a", Schema: engine.Schema{
		{Name: "id", Type: engine.TypeInt}, {Name: "x", Type: engine.TypeFloat}, {Name: "tag", Type: engine.TypeString},
	}}
	for i := 0; i < rows; i++ {
		tbl.Rows = append(tbl.Rows, engine.Row{engine.Int(int64(i)), engine.Float(float64(i % 100)), engine.Str("t")})
	}
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: segRows})
	q := engine.FromStorage(st).WhereExpr(plan.Cmp{Col: "x", Op: ">", Val: plan.FloatLit(98)})
	allocs := testing.AllocsPerRun(5, func() {
		if n, err := q.Count(); err != nil || n != rows/100 {
			t.Fatalf("Count = %d, %v", n, err)
		}
	})
	if limit := float64(40 * rows / segRows); allocs > limit {
		t.Fatalf("counting %d rows in %d segments allocated %.0f times, want ≤ %.0f", rows, rows/segRows, allocs, limit)
	}
}
