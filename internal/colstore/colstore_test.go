package colstore_test

// Unit tests for the segment format: write/read round-trips, segment
// partitioning, empty relations, corruption detection, and zone-map
// pruning accounting (iterator stats vs PlanScan's footer-only
// prediction).

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modeldata/internal/colstore"
	"modeldata/internal/engine"
	"modeldata/internal/engine/plan"
	"modeldata/internal/obs"
)

func seqTable(name string, n int) *engine.Table {
	t := &engine.Table{Name: name, Schema: engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "x", Type: engine.TypeFloat},
		{Name: "tag", Type: engine.TypeString},
		{Name: "flag", Type: engine.TypeBool},
	}}
	tags := []string{"a", "b", "c", ""}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, engine.Row{
			engine.Int(int64(i)),
			engine.Float(float64(i) / 8),
			engine.Str(tags[i%len(tags)]),
			engine.Bool(i%3 == 0),
		})
	}
	return t
}

func writeAndOpen(t *testing.T, tbl *engine.Table, opt colstore.Options) *colstore.Store {
	t.Helper()
	dir := t.TempDir()
	if err := colstore.WriteTable(dir, tbl, opt); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	st, err := colstore.Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func drain(t *testing.T, it engine.PartitionIter) []*engine.ColumnBlock {
	t.Helper()
	var parts []*engine.ColumnBlock
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if b == nil {
			return parts
		}
		parts = append(parts, b)
	}
}

// segments returns the number of on-disk segments of st: the partition
// count of an unpruned scan.
func segments(st *colstore.Store) int {
	parts, _, _ := st.PlanScan(nil, nil)
	return int(parts)
}

func TestRoundTripMultiSegment(t *testing.T) {
	tbl := seqTable("events", 100)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 16})
	if got, want := segments(st), 7; got != want { // ceil(100/16)
		t.Fatalf("segments = %d, want %d", got, want)
	}
	if got := st.NumRows(); got != 100 {
		t.Fatalf("NumRows = %d, want 100", got)
	}
	if st.StorageName() != "events" {
		t.Fatalf("StorageName = %q", st.StorageName())
	}
	if !st.StorageSchema().Equal(tbl.Schema) {
		t.Fatalf("schema mismatch: %v", st.StorageSchema())
	}
	out, err := engine.FromStorage(st).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requireSameTable(t, "round-trip", tbl, out)
}

func TestRoundTripEmptyRelation(t *testing.T) {
	tbl := seqTable("empty", 0)
	st := writeAndOpen(t, tbl, colstore.Options{})
	if segments(st) != 1 {
		t.Fatalf("empty relation should write one segment, got %d", segments(st))
	}
	if st.NumRows() != 0 {
		t.Fatalf("NumRows = %d, want 0", st.NumRows())
	}
	if !st.StorageSchema().Equal(tbl.Schema) {
		t.Fatalf("schema did not round-trip: %v", st.StorageSchema())
	}
	out, err := engine.FromStorage(st).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out.Rows) != 0 || !out.Schema.Equal(tbl.Schema) {
		t.Fatalf("empty query result wrong: %d rows, schema %v", len(out.Rows), out.Schema)
	}
}

func TestWriterAppendAcrossSegmentBoundaries(t *testing.T) {
	// Append in ragged block sizes; segment boundaries must not care.
	tbl := seqTable("ragged", 50)
	dir := t.TempDir()
	w, err := colstore.NewWriter(dir, tbl.Name, tbl.Schema, colstore.Options{SegmentRows: 8})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for lo := 0; lo < 50; {
		hi := lo + 1 + lo%7
		if hi > 50 {
			hi = 50
		}
		part := &engine.Table{Name: tbl.Name, Schema: tbl.Schema, Rows: tbl.Rows[lo:hi]}
		if err := w.AppendTable(part); err != nil {
			t.Fatalf("AppendTable[%d:%d]: %v", lo, hi, err)
		}
		lo = hi
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := colstore.Open(dir, colstore.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	out, err := engine.FromStorage(st).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requireSameTable(t, "ragged append", tbl, out)
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := colstore.Open(t.TempDir(), colstore.Options{}); err == nil {
		t.Fatal("Open on an empty dir should fail")
	}
}

// corruptAt flips one byte of the single segment file under dir.
func corruptAt(t *testing.T, dir string, pick func(size int64) int64) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.mdcs"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(paths))
	}
	f, err := os.OpenFile(paths[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	off := pick(fi.Size())
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("read: %v", err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func TestBlockCorruptionDetectedAtScan(t *testing.T) {
	tbl := seqTable("c", 64)
	dir := t.TempDir()
	if err := colstore.WriteTable(dir, tbl, colstore.Options{}); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	// Byte 16 is inside the first column block (header is 5 bytes, the
	// id block spans 64*8 bytes after it), far from the footer.
	corruptAt(t, dir, func(int64) int64 { return 16 })
	st, err := colstore.Open(dir, colstore.Options{})
	if err != nil {
		t.Fatalf("Open should succeed (footer intact): %v", err)
	}
	_, err = engine.FromStorage(st).Run()
	if !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("scan error = %v, want ErrCorrupt", err)
	}
}

func TestFooterCorruptionDetectedAtOpen(t *testing.T) {
	tbl := seqTable("c", 64)
	dir := t.TempDir()
	if err := colstore.WriteTable(dir, tbl, colstore.Options{}); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	// 40 bytes before EOF lands inside the footer (trailer is 12 bytes,
	// footer checksum 8 more; the footer itself precedes those).
	corruptAt(t, dir, func(size int64) int64 { return size - 40 })
	if _, err := colstore.Open(dir, colstore.Options{}); !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("Open error = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedFileDetectedAtOpen(t *testing.T) {
	tbl := seqTable("c", 64)
	dir := t.TempDir()
	if err := colstore.WriteTable(dir, tbl, colstore.Options{}); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "seg-*.mdcs"))
	fi, err := os.Stat(paths[0])
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(paths[0], fi.Size()-5); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := colstore.Open(dir, colstore.Options{}); err == nil {
		t.Fatal("Open on a truncated segment should fail")
	}
}

func TestZoneMapPruning(t *testing.T) {
	// Sequential ids, 100 per segment: a BETWEEN over [250, 349] spans
	// exactly segments 2 and 3 of 10.
	tbl := seqTable("z", 1000)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 100})
	pred := plan.Between{Col: "id", Lo: plan.IntLit(250), Hi: plan.IntLit(349)}

	before := obs.Default().Snapshot()
	it, err := st.ScanPartitions(context.Background(), nil, pred)
	if err != nil {
		t.Fatalf("ScanPartitions: %v", err)
	}
	parts := drain(t, it)
	stats := it.Stats()
	if stats.Partitions != 10 || stats.Scanned != 2 {
		t.Fatalf("stats = %+v, want 10 partitions / 2 scanned", stats)
	}
	wantPruned := int64(8 * len(tbl.Schema))
	if got := obs.Default().Snapshot().Sub(before).Counters[colstore.MetricBlocksPruned]; got != wantPruned {
		t.Fatalf("%s moved by %d, want %d", colstore.MetricBlocksPruned, got, wantPruned)
	}
	if planned, pruned, rows := st.PlanScan(nil, pred); planned != 10 || pruned != wantPruned || rows != 200 {
		t.Fatalf("PlanScan = (%d, %d, %d), want (10, %d, 200)", planned, pruned, rows, wantPruned)
	}
	var rows int
	for _, b := range parts {
		rows += b.Len()
	}
	if rows != 200 { // two whole segments survive; filters re-apply later
		t.Fatalf("surviving rows = %d, want 200", rows)
	}

	// Pruning must be invisible in results: the storage query matches
	// the in-memory one exactly.
	want, err := engine.From(tbl).WhereExpr(pred).Run()
	if err != nil {
		t.Fatalf("in-memory Run: %v", err)
	}
	got, err := engine.FromStorage(st).WhereExpr(pred).Run()
	if err != nil {
		t.Fatalf("storage Run: %v", err)
	}
	requireSameTable(t, "pruned scan", want, got)
}

func TestNaNSegmentsSurviveOrderPredicates(t *testing.T) {
	// A segment whose float column is all NaN must still be scanned for
	// <=-style predicates (NaN rows match them under engine semantics)
	// but may be pruned for <.
	tbl := &engine.Table{Name: "nan", Schema: engine.Schema{
		{Name: "x", Type: engine.TypeFloat},
	}}
	for i := 0; i < 4; i++ {
		tbl.Rows = append(tbl.Rows, engine.Row{engine.Float(math.NaN())})
	}
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 4})

	le := plan.Cmp{Op: "<=", Col: "x", Val: plan.FloatLit(0)}
	if _, pruned, _ := st.PlanScan(nil, le); pruned != 0 {
		t.Fatalf("all-NaN segment pruned for <= (pruned=%d); NaN rows match <=", pruned)
	}
	lt := plan.Cmp{Op: "<", Col: "x", Val: plan.FloatLit(0)}
	if _, pruned, _ := st.PlanScan(nil, lt); pruned == 0 {
		t.Fatal("all-NaN segment not pruned for <; NaN rows never match <")
	}

	for _, pred := range []plan.Expr{le, lt} {
		want, err := engine.From(tbl).WhereExpr(pred).Run()
		if err != nil {
			t.Fatalf("in-memory: %v", err)
		}
		got, err := engine.FromStorage(st).WhereExpr(pred).Run()
		if err != nil {
			t.Fatalf("storage: %v", err)
		}
		requireSameTable(t, "NaN pruning", want, got)
	}
}

func TestExplainReportsPruning(t *testing.T) {
	tbl := seqTable("z", 1000)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 100})
	tree, err := engine.FromStorage(st).
		WhereExpr(plan.Between{Col: "id", Lo: plan.IntLit(250), Hi: plan.IntLit(349)}).
		Explain()
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	text := tree.Text()
	if !strings.Contains(text, "partitions=10") || !strings.Contains(text, "blocks_pruned=32") {
		t.Fatalf("Explain missing partition/pruning annotations:\n%s", text)
	}
}

// EXPLAIN's blocks_pruned= is what the executed scan pruned, as the
// colstore.blocks_pruned counter counts it: a pruned segment counts one
// block per column the scan projects.
func TestExplainPruningMatchesScanStats(t *testing.T) {
	st := writeAndOpen(t, seqTable("z", 1000), colstore.Options{SegmentRows: 100})
	mid := plan.Between{Col: "id", Lo: plan.IntLit(250), Hi: plan.IntLit(349)}
	for _, tc := range []struct {
		name  string
		build func(*engine.Query) *engine.Query
		want  int64
	}{
		{"full scan", func(q *engine.Query) *engine.Query { return q.WhereExpr(mid) }, 8 * 4},
		{"projected scan", func(q *engine.Query) *engine.Query { return q.WhereExpr(mid).Select("tag") }, 8 * 2},
	} {
		tree, err := tc.build(engine.FromStorage(st)).Explain()
		if err != nil {
			t.Fatalf("%s: Explain: %v", tc.name, err)
		}
		scan := tree.Root
		for scan.Kind != plan.KindScan {
			scan = scan.Input
		}
		before := obs.Default().Snapshot()
		if _, err := tc.build(engine.FromStorage(st)).Run(); err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if got := obs.Default().Snapshot().Sub(before).Counters[colstore.MetricBlocksPruned]; scan.BlocksPruned != got || got != tc.want {
			t.Fatalf("%s: EXPLAIN blocks_pruned=%d, scan pruned %d, want %d", tc.name, scan.BlocksPruned, got, tc.want)
		}
	}
}

func TestScanHonorsContextCancel(t *testing.T) {
	tbl := seqTable("c", 64)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 8})
	ctx, cancel := context.WithCancel(context.Background())
	it, err := st.ScanPartitions(ctx, nil, nil)
	if err != nil {
		t.Fatalf("ScanPartitions: %v", err)
	}
	if _, err := it.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	if _, err := it.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
}

func TestColumnProjection(t *testing.T) {
	tbl := seqTable("p", 40)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 16})
	it, err := st.ScanPartitions(context.Background(), []string{"tag", "id"}, nil)
	if err != nil {
		t.Fatalf("ScanPartitions: %v", err)
	}
	for _, b := range drain(t, it) {
		if len(b.Schema) != 2 || b.Schema[0].Name != "tag" || b.Schema[1].Name != "id" {
			t.Fatalf("projected schema = %v", b.Schema)
		}
	}
	if _, err := st.ScanPartitions(context.Background(), []string{"nope"}, nil); err == nil {
		t.Fatal("projection of a missing column should fail")
	}
}
