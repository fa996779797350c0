package colstore_test

// Storage equivalence beyond the engine's golden lattice, which runs
// every generated pipeline over a store of random segment size: every
// leading filter paired with every shaping stage, spill-forced joins
// and group-bys, SQL over a registered store, concurrent scans (run
// under -race), and the streaming of a budgeted group-by — its
// buffering, spilling and releases — each answering byte for byte as
// the in-memory table does, float payload bits (NaN, -0, ±Inf) and
// integers beyond 2^53 included.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"modeldata/internal/colstore"
	"modeldata/internal/engine"
	"modeldata/internal/engine/plan"
	"modeldata/internal/obs"
	"modeldata/internal/rng"
)

// requireSameTable fails the test unless engine.DiffTables finds got
// identical to want.
func requireSameTable(t testing.TB, label string, want, got *engine.Table) {
	t.Helper()
	if err := engine.DiffTables(want, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

var equivSchema = engine.Schema{
	{Name: "id", Type: engine.TypeInt},
	{Name: "x", Type: engine.TypeFloat},
	{Name: "tag", Type: engine.TypeString},
	{Name: "flag", Type: engine.TypeBool},
}

// cornerTable is n rows whose columns cycle, at co-prime periods,
// through the values a disk round trip must keep exactly: int64s beyond
// 2^53, NaN, -0, ±Inf and strings with embedded NULs.
func cornerTable(name string, n int) *engine.Table {
	ids := []int64{-3, -2, -1, 0, 1, 2, 3, 1<<53 + 1, -(1<<53 + 3)}
	xs := []float64{-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	tags := []string{"", "a", "b", "ab", "a\x00", "\x00a", "a\x00b", "xyz"}
	t := &engine.Table{Name: name, Schema: equivSchema.Clone()}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, engine.Row{engine.Int(ids[i%len(ids)]), engine.Float(xs[i*7%len(xs)]),
			engine.Str(tags[i*3%len(tags)]), engine.Bool(i%5 < 2)})
	}
	return t
}

// dimTable is the join side of the pipelines below: each of the keys
// -k..k under dups labels, so the build side repeats keys.
func dimTable(k, dups int) *engine.Table {
	t := &engine.Table{Name: "dim", Schema: engine.Schema{
		{Name: "jid", Type: engine.TypeInt},
		{Name: "label", Type: engine.TypeString},
	}}
	for i := -k; i <= k; i++ {
		for d := 0; d < dups; d++ {
			t.Rows = append(t.Rows, engine.Row{engine.Int(int64(i)), engine.Str(fmt.Sprintf("L%d.%d", i, d))})
		}
	}
	return t
}

// TestStorageEquivalenceRandomPipelines pairs every leading filter —
// the comparisons zone maps judge, one that prunes every segment, and
// an opaque one they cannot judge — with every shaping stage, over a
// table of random length stored at 1–6 rows per segment and at a
// random longer size, and requires the answer of the same pipeline over
// the in-memory table.
func TestStorageEquivalenceRandomPipelines(t *testing.T) {
	type stage struct {
		name string
		op   func(*engine.Query) *engine.Query
	}
	leads := []stage{
		{"scan", func(q *engine.Query) *engine.Query { return q }},
		{"eq tag", func(q *engine.Query) *engine.Query { return q.WhereEq("tag", engine.Str("a\x00")) }},
		{"eq big id", func(q *engine.Query) *engine.Query { return q.WhereEq("id", engine.Int(1<<53+1)) }},
		{"between id", func(q *engine.Query) *engine.Query {
			return q.WhereExpr(plan.Between{Col: "id", Lo: plan.IntLit(-1), Hi: plan.IntLit(2)})
		}},
		{"x >= 0.5 and x != 1", func(q *engine.Query) *engine.Query {
			return q.WhereExpr(plan.Cmp{Op: ">=", Col: "x", Val: plan.FloatLit(0.5)}).
				WhereExpr(plan.Cmp{Op: "!=", Col: "x", Val: plan.FloatLit(1)})
		}},
		{"all pruned", func(q *engine.Query) *engine.Query {
			return q.WhereExpr(plan.Cmp{Op: ">", Col: "id", Val: plan.IntLit(1 << 62)})
		}},
		{"x <= 0", func(q *engine.Query) *engine.Query {
			return q.WhereExpr(plan.Cmp{Op: "<=", Col: "x", Val: plan.FloatLit(0)})
		}},
	}
	dim := dimTable(3, 2)
	shapes := []stage{
		{"group-by", func(q *engine.Query) *engine.Query {
			return q.GroupBy([]string{"tag"},
				engine.Aggregate{Fn: engine.AggCount, As: "n"},
				engine.Aggregate{Fn: engine.AggSum, Col: "x", As: "sx"},
				engine.Aggregate{Fn: engine.AggMin, Col: "id", As: "mid"},
				engine.Aggregate{Fn: engine.AggMax, Col: "x", As: "mx"})
		}},
		{"join", func(q *engine.Query) *engine.Query { return q.Join(dim, "id", "jid") }},
		{"distinct", func(q *engine.Query) *engine.Query { return q.Select("tag", "flag").Distinct() }},
		{"order+limit", func(q *engine.Query) *engine.Query { return q.OrderBy("x", true).Limit(17) }},
	}
	r := rng.New(907)
	for _, lead := range leads {
		for _, shape := range shapes {
			// Segments of 1–6 rows hold few of cornerTable's values, so
			// their zone maps prune; a longer one holds most of them.
			tbl := cornerTable("ev", r.Intn(200))
			for _, segRows := range []int{1, 2, 3, 4, 5, 6, 7 + r.Intn(58)} {
				label := fmt.Sprintf("%s; %s over %d rows, %d rows/segment", lead.name, shape.name, tbl.Len(), segRows)
				st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: segRows})
				want, werr := shape.op(lead.op(engine.From(tbl))).Run()
				got, gerr := shape.op(lead.op(engine.FromStorage(st))).Run()
				if werr != nil || gerr != nil {
					t.Fatalf("%s: in memory err=%v, store err=%v", label, werr, gerr)
				}
				requireSameTable(t, label, want, got)
			}
		}
	}
}

// TestStorageEquivalenceSpillForced runs a join whose build side
// repeats keys and a two-key group-by over a store at a one-byte
// budget, which forces a Grace spill of every hash build, and requires
// that each spilled and answered as the unbudgeted in-memory query does.
func TestStorageEquivalenceSpillForced(t *testing.T) {
	dim := dimTable(5, 2)
	aggs := []engine.Aggregate{
		{Fn: engine.AggCount, As: "n"},
		{Fn: engine.AggSum, Col: "x", As: "sx"},
		{Fn: engine.AggMin, Col: "id", As: "mid"},
	}
	queries := []struct {
		name string
		op   func(*engine.Query) *engine.Query
	}{
		{"join", func(q *engine.Query) *engine.Query { return q.Join(dim, "id", "jid") }},
		{"group-by", func(q *engine.Query) *engine.Query { return q.GroupBy([]string{"tag", "flag"}, aggs...) }},
	}
	for _, n := range []int{50, 117, 200} {
		tbl := cornerTable("ev", n)
		st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 16})
		for _, q := range queries {
			label := fmt.Sprintf("%s over %d rows", q.name, n)
			want, err := q.op(engine.From(tbl)).Run()
			if err != nil {
				t.Fatalf("%s in memory: %v", label, err)
			}
			before := obs.Default().Snapshot()
			got, err := q.op(engine.FromStorage(st)).WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
			if err != nil {
				t.Fatalf("%s spilled: %v", label, err)
			}
			requireSameTable(t, label, want, got)
			if obs.Default().Snapshot().Sub(before).Counters[engine.MetricSpillPartitions] == 0 {
				t.Fatalf("%s did not spill", label)
			}
		}
	}
}

func TestStorageEquivalenceSQL(t *testing.T) {
	tbl := cornerTable("ev", 300)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 32})

	mem := engine.NewDatabase()
	mem.Put(tbl)
	disk := engine.NewDatabase()
	disk.PutStorage(st)

	queries := []string{
		`SELECT * FROM ev`,
		`SELECT id, x FROM ev WHERE id BETWEEN -2 AND 2 ORDER BY id`,
		`SELECT tag, COUNT(*) AS n, SUM(x) AS sx FROM ev GROUP BY tag ORDER BY tag`,
		`SELECT DISTINCT tag FROM ev ORDER BY tag`,
		`SELECT id, tag FROM ev WHERE x >= 0 AND flag = TRUE ORDER BY id LIMIT 10`,
		`SELECT COUNT(*) AS n FROM ev WHERE x <= 0`,
	}
	for _, sql := range queries {
		want, werr := mem.Query(sql)
		got, gerr := disk.Query(sql)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error mismatch: mem=%v store=%v", sql, werr, gerr)
		}
		if werr != nil {
			continue
		}
		requireSameTable(t, sql, want, got)
	}
}

func TestStorageEquivalenceConcurrent(t *testing.T) {
	tbl := cornerTable("ev", 400)
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 32})
	pred := plan.Between{Col: "id", Lo: plan.IntLit(-1), Hi: plan.IntLit(2)}
	want, err := engine.From(tbl).WhereExpr(pred).Run()
	if err != nil {
		t.Fatalf("in-memory: %v", err)
	}
	aggs := []engine.Aggregate{
		{Fn: engine.AggCount, As: "n"},
		{Fn: engine.AggSum, Col: "x", As: "sx"},
	}
	wantG, err := engine.From(tbl).GroupBy([]string{"tag"}, aggs...).Run()
	if err != nil {
		t.Fatalf("in-memory group: %v", err)
	}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						got, err := engine.FromStorage(st).WhereExpr(pred).Run()
						if err != nil {
							errs <- fmt.Errorf("worker %d scan: %w", w, err)
							return
						}
						if len(got.Rows) != len(want.Rows) {
							errs <- fmt.Errorf("worker %d: %d rows, want %d", w, len(got.Rows), len(want.Rows))
							return
						}
						gotG, err := engine.FromStorage(st).GroupBy([]string{"tag"}, aggs...).
							WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
						if err != nil {
							errs <- fmt.Errorf("worker %d group: %w", w, err)
							return
						}
						if len(gotG.Rows) != len(wantG.Rows) {
							errs <- fmt.Errorf("worker %d: %d groups, want %d", w, len(gotG.Rows), len(wantG.Rows))
							return
						}
					}
					errs <- nil
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// releaseCount is a Storage that counts the partitions its scans hand
// out and the ones handed back; a partition a group-by buffered is
// never handed back. With noHint set it plans and scans without the
// pruning hint, as a store whose zone maps cannot judge the filter.
type releaseCount struct {
	*colstore.Store
	noHint          bool
	parts, released int
}

func (r *releaseCount) ScanPartitions(ctx context.Context, cols []string, pred plan.Expr) (engine.PartitionIter, error) {
	if r.noHint {
		pred = nil
	}
	it, err := r.Store.ScanPartitions(ctx, cols, pred)
	if err != nil {
		return nil, err
	}
	return &countIter{PartitionIter: it, r: r}, nil
}

func (r *releaseCount) PlanScan(cols []string, pred plan.Expr) (partitions, blocksPruned, rows int64) {
	if r.noHint {
		pred = nil
	}
	return r.Store.PlanScan(cols, pred)
}

type countIter struct {
	engine.PartitionIter
	r *releaseCount
}

func (c *countIter) Next() (*engine.ColumnBlock, error) {
	b, err := c.PartitionIter.Next()
	if b != nil {
		c.r.parts++
	}
	return b, err
}

func (c *countIter) Release(b *engine.ColumnBlock) {
	c.r.released++
	c.PartitionIter.Release(b)
}

// A storage-sourced group-by under a memory budget streams its scan
// into the Grace partitioner. Over every key type — NaN, −0 and +0
// among the floats — with MIN/MAX of every type and AVG, behind a
// leading filter and Select, over a scan whose every segment is pruned,
// and with a budget crossed at the first partition or only at a later
// one, each result equals the unbudgeted query over the table byte for
// byte. The later crossing comes after a filter empties the first
// segments of a store that plans and scans without the pruning hint, so
// no zone map judges the filter and partitions holding rows are
// buffered and then handed to the partitioner.
func TestStorageEquivalenceSpilledGroupBy(t *testing.T) {
	tbl := cornerTable("ev", 300)
	st := &releaseCount{Store: writeAndOpen(t, tbl, colstore.Options{SegmentRows: 16})}
	// late is tbl with the rows keep drops moved to the front; keep is
	// x >= -1 read as !(x < -1), which keeps NaN.
	keep := func(v float64) bool { return !(v < -1) }
	late := &engine.Table{Name: tbl.Name, Schema: tbl.Schema}
	for _, kept := range []bool{false, true} {
		for _, row := range tbl.Rows {
			if keep(row[1].AsFloat()) == kept {
				late.Rows = append(late.Rows, row)
			}
		}
	}
	dropped := 0
	for dropped < len(late.Rows) && !keep(late.Rows[dropped][1].AsFloat()) {
		dropped++
	}
	lateSt := &releaseCount{Store: writeAndOpen(t, late, colstore.Options{SegmentRows: 16}), noHint: true}
	aggs := []engine.Aggregate{
		{Fn: engine.AggCount, As: "n"},
		{Fn: engine.AggSum, Col: "x", As: "sx"},
		{Fn: engine.AggAvg, Col: "x", As: "ax"},
		{Fn: engine.AggAvg, Col: "id", As: "aid"},
	}
	for _, c := range equivSchema {
		aggs = append(aggs,
			engine.Aggregate{Fn: engine.AggMin, Col: c.Name, As: "min_" + c.Name},
			engine.Aggregate{Fn: engine.AggMax, Col: c.Name, As: "max_" + c.Name})
	}
	keys := [][]string{{"id"}, {"x"}, {"tag"}, {"flag"}, {"tag", "flag"}, {"x", "id"}}
	leads := []struct {
		name string
		tbl  *engine.Table
		st   *releaseCount
		lead func(*engine.Query) *engine.Query
	}{
		{"scan", tbl, st, func(q *engine.Query) *engine.Query { return q }},
		{"filter+select", tbl, st, func(q *engine.Query) *engine.Query {
			return q.WhereExpr(plan.Cmp{Op: ">=", Col: "x", Val: plan.FloatLit(-1)}).Select("flag", "tag", "x", "id")
		}},
		{"all pruned", tbl, st, func(q *engine.Query) *engine.Query {
			return q.WhereExpr(plan.Cmp{Op: ">", Col: "id", Val: plan.IntLit(1 << 62)})
		}},
		{"late rows", late, lateSt, func(q *engine.Query) *engine.Query {
			return q.WhereExpr(plan.Cmp{Op: ">=", Col: "x", Val: plan.FloatLit(-1)})
		}},
	}
	// Every row's hash estimate is at least hashEntryBytes (48): 100 rows'
	// worth is more than a 16-row segment holds and less than the table.
	const later = 100 * 48
	spilled := 0
	for _, k := range keys {
		for _, l := range leads {
			want, err := l.lead(engine.From(l.tbl)).GroupBy(k, aggs...).Run()
			if err != nil {
				t.Fatalf("%v %s in memory: %v", k, l.name, err)
			}
			for _, budget := range []int64{1, later} {
				label := fmt.Sprintf("keys %v, %s, budget %d", k, l.name, budget)
				before := obs.Default().Snapshot()
				l.st.parts, l.st.released = 0, 0
				got, err := l.lead(engine.FromStorage(l.st)).GroupBy(k, aggs...).
					WithMemoryBudget(budget).WithSpillDir(t.TempDir()).Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameTable(t, label, want, got)
				if obs.Default().Snapshot().Sub(before).Counters[engine.MetricSpillPartitions] > 0 {
					spilled++
				}
				// Past the segments keep empties, a partition holding
				// rows was buffered before the spill started.
				if buffered := l.st.parts - l.st.released; l.st == lateSt && budget == later && buffered <= dropped/16 {
					t.Fatalf("%s: %d partitions buffered, want more than the %d keep empties", label, buffered, dropped/16)
				}
			}
		}
	}
	// Everything spills but the pruned scans, whose one empty partition
	// never crosses a budget.
	if want := len(keys) * 3 * 2; spilled != want {
		t.Fatalf("%d of the budgeted queries spilled, want %d", spilled, want)
	}
}

// A streamed group-by projects its estimate to the rows of the
// segments its scan reads, not to the whole store: behind a filter
// that zone maps prune to one segment, a group-by that fits its budget
// stays in memory, while the same budget spills the unfiltered one.
func TestPrunedGroupByWithinBudgetStaysInMemory(t *testing.T) {
	tbl := &engine.Table{Name: "seq", Schema: engine.Schema{{Name: "id", Type: engine.TypeInt}, {Name: "x", Type: engine.TypeFloat}}}
	for i := 0; i < 256; i++ {
		tbl.Rows = append(tbl.Rows, engine.Row{engine.Int(int64(i)), engine.Float(float64(i % 7))})
	}
	st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 16})
	lastSegment := plan.Cmp{Op: ">=", Col: "id", Val: plan.IntLit(240)}
	agg := engine.Aggregate{Fn: engine.AggSum, Col: "x", As: "sx"}
	// An int key's row estimates hashEntryBytes + 8 = 56 bytes: the one
	// segment read fits twice over, the whole store does not.
	const budget = 2 * 16 * 56
	for _, tc := range []struct {
		name   string
		lead   func(*engine.Query) *engine.Query
		spills bool
	}{
		{"pruned to one segment", func(q *engine.Query) *engine.Query { return q.WhereExpr(lastSegment) }, false},
		{"every segment", func(q *engine.Query) *engine.Query { return q }, true},
	} {
		want := tc.lead(engine.From(tbl)).GroupBy([]string{"id"}, agg).MustRun()
		before := obs.Default().Snapshot()
		got, err := tc.lead(engine.FromStorage(st)).GroupBy([]string{"id"}, agg).
			WithMemoryBudget(budget).WithSpillDir(t.TempDir()).Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireSameTable(t, tc.name, want, got)
		if spilled := obs.Default().Snapshot().Sub(before).Counters[engine.MetricSpillPartitions] > 0; spilled != tc.spills {
			t.Fatalf("%s: spilled = %v, want %v", tc.name, spilled, tc.spills)
		}
	}
}

// A budgeted group-by over a store never concatenates its scan: beyond
// what decoding the referenced columns costs, it allocates less than
// half their decoded bytes. The reference scan releases every block,
// as the group-by's scan does once it spills.
func TestSpilledGroupByNeverConcatenates(t *testing.T) {
	const rows = 200_000
	ids, vals := make([]int64, rows), make([]float64, rows)
	for i := range ids {
		ids[i], vals[i] = int64(i%1024), float64(i%977)/7
	}
	b, err := engine.BlockOf("big", engine.Schema{{Name: "gid", Type: engine.TypeInt}, {Name: "val", Type: engine.TypeFloat}}, []any{ids, vals})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := colstore.NewWriter(dir, "big", b.Schema, colstore.Options{SegmentRows: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.Open(dir, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	spill := t.TempDir()
	before := obs.Default().Snapshot()
	group := allocated(func() {
		got, err := engine.FromStorage(st).GroupBy([]string{"gid"},
			engine.Aggregate{Fn: engine.AggSum, Col: "val", As: "sv"}).
			WithMemoryBudget(1 << 20).WithSpillDir(spill).Run()
		if err != nil || got.Len() != 1024 {
			t.Fatalf("group-by: %v groups, %v", got, err)
		}
	})
	if obs.Default().Snapshot().Sub(before).Counters[engine.MetricSpillPartitions] == 0 {
		t.Fatal("the group-by did not spill")
	}
	scan := allocated(func() {
		it, err := st.ScanPartitions(context.Background(), []string{"gid", "val"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for b, err := it.Next(); b != nil || err != nil; b, err = it.Next() {
			if err != nil {
				t.Fatal(err)
			}
			it.Release(b)
		}
	})
	decoded := uint64(rows * 16)
	if group < scan || group-scan >= decoded/2 {
		t.Fatalf("group-by allocated %d bytes beyond its scan's %d, want < %d (half the %d decoded bytes)",
			int64(group)-int64(scan), scan, decoded/2, decoded)
	}
}
