package colstore_test

// Storage-equivalence suite: every Query/SQL pipeline over the on-disk
// backend must return a byte-identical table to the same pipeline over
// the in-memory Table — including float payload bits (NaN, -0, ±Inf),
// integers beyond 2^53, spill-forced joins and group-bys at tiny
// memory budgets, and concurrent scans (run under -race).

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

// sameValueBits mirrors the engine golden suite: float equality is
// bit-pattern equality with all NaNs one class, so -0 != +0 and payload
// bits must survive the disk round-trip.
func sameValueBits(a, b engine.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case engine.TypeFloat:
		af, bf := a.AsFloat(), b.AsFloat()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return math.IsNaN(af) && math.IsNaN(bf)
		}
		return math.Float64bits(af) == math.Float64bits(bf)
	case engine.TypeInt:
		return a.AsInt() == b.AsInt()
	case engine.TypeString:
		return a.AsString() == b.AsString()
	case engine.TypeBool:
		return a.AsBool() == b.AsBool()
	}
	return false
}

func requireSameTable(t *testing.T, label string, want, got *engine.Table) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("%s: name %q, want %q", label, got.Name, want.Name)
	}
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("%s: schema %v, want %v", label, got.Schema, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Schema {
			if !sameValueBits(want.Rows[i][j], got.Rows[i][j]) {
				t.Fatalf("%s: row %d col %d: %v, want %v", label, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// randomValue mirrors the engine golden suite's corner-heavy generator:
// int64s beyond 2^53 (where float round-trips lose exactness), NaN,
// -0, ±Inf, and strings with embedded NULs.
func randomValue(r *rng.Stream, typ engine.Type) engine.Value {
	switch typ {
	case engine.TypeInt:
		switch r.Intn(8) {
		case 0:
			return engine.Int(int64(1)<<53 + 1 + int64(r.Intn(5)))
		case 1:
			return engine.Int(-(int64(1)<<53 + 3 + int64(r.Intn(5))))
		default:
			return engine.Int(int64(r.Intn(7)) - 3)
		}
	case engine.TypeFloat:
		switch r.Intn(10) {
		case 0:
			return engine.Float(math.NaN())
		case 1:
			return engine.Float(math.Copysign(0, -1))
		case 2:
			return engine.Float(math.Inf(1 - 2*r.Intn(2)))
		default:
			return engine.Float(float64(r.Intn(9))/2 - 2)
		}
	case engine.TypeString:
		opts := []string{"", "a", "b", "ab", "a\x00", "\x00a", "a\x00b", "xyz"}
		return engine.Str(opts[r.Intn(len(opts))])
	default:
		return engine.Bool(r.Intn(2) == 0)
	}
}

var equivSchema = engine.Schema{
	{Name: "id", Type: engine.TypeInt},
	{Name: "x", Type: engine.TypeFloat},
	{Name: "tag", Type: engine.TypeString},
	{Name: "flag", Type: engine.TypeBool},
}

func randomTable(r *rng.Stream, name string, n int) *engine.Table {
	t := &engine.Table{Name: name, Schema: equivSchema.Clone()}
	for i := 0; i < n; i++ {
		row := make(engine.Row, len(equivSchema))
		for j, c := range equivSchema {
			row[j] = randomValue(r, c.Type)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// pipeline is one randomly chosen op sequence, applied identically to
// the in-memory and storage-backed queries.
type pipeline struct {
	desc string
	ops  []func(*engine.Query) *engine.Query
}

func (p *pipeline) apply(q *engine.Query) *engine.Query {
	for _, op := range p.ops {
		q = op(q)
	}
	return q
}

func randomPipeline(r *rng.Stream, join *engine.Table) *pipeline {
	p := &pipeline{}
	add := func(desc string, op func(*engine.Query) *engine.Query) {
		p.desc += desc + ";"
		p.ops = append(p.ops, op)
	}
	// Leading filters (zero or more) — these double as pruning hints.
	for i := r.Intn(3); i > 0; i-- {
		switch r.Intn(4) {
		case 0:
			probe := randomValue(r, engine.Type(r.Intn(4)))
			col := equivSchema[probe.Type()].Name // schema is typ-ordered
			add(fmt.Sprintf("eq(%s)", col), func(q *engine.Query) *engine.Query {
				return q.WhereEq(col, probe)
			})
		case 1:
			cut := float64(r.Intn(5)) - 2
			add("floatle", func(q *engine.Query) *engine.Query {
				return q.WhereFloat("x", func(v float64) bool { return v <= cut })
			})
		case 2:
			lo := int64(r.Intn(7)) - 3
			hi := lo + int64(r.Intn(4))
			add("between", func(q *engine.Query) *engine.Query {
				return q.WhereExpr(plan.Between{Col: "id", Lo: plan.IntLit(lo), Hi: plan.IntLit(hi)})
			})
		case 3:
			op := []string{"<", "<=", ">", ">=", "!="}[r.Intn(5)]
			cut := float64(r.Intn(5)) - 2
			add("cmp"+op, func(q *engine.Query) *engine.Query {
				return q.WhereExpr(plan.Cmp{Op: op, Col: "x", Val: plan.FloatLit(cut)})
			})
		}
	}
	// One shaping stage.
	switch r.Intn(4) {
	case 0:
		add("groupby", func(q *engine.Query) *engine.Query {
			return q.GroupBy([]string{"tag"},
				engine.Aggregate{Fn: engine.AggCount, As: "n"},
				engine.Aggregate{Fn: engine.AggSum, Col: "x", As: "sx"},
				engine.Aggregate{Fn: engine.AggMin, Col: "id", As: "mid"},
				engine.Aggregate{Fn: engine.AggMax, Col: "x", As: "mx"},
			)
		})
	case 1:
		if join != nil {
			add("join", func(q *engine.Query) *engine.Query {
				return q.Join(join, "id", "jid")
			})
		}
	case 2:
		add("distinct", func(q *engine.Query) *engine.Query {
			return q.Select("tag", "flag").Distinct()
		})
	case 3:
		desc := r.Intn(2) == 0
		n := 1 + r.Intn(20)
		add("orderlimit", func(q *engine.Query) *engine.Query {
			return q.OrderBy("id", desc).Limit(n)
		})
	}
	return p
}

func TestStorageEquivalenceRandomPipelines(t *testing.T) {
	r := rng.New(907)
	for trial := 0; trial < 40; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "ev", tr.Intn(200))
		join := &engine.Table{Name: "dim", Schema: engine.Schema{
			{Name: "jid", Type: engine.TypeInt},
			{Name: "label", Type: engine.TypeString},
		}}
		for i := -3; i <= 3; i++ {
			join.Rows = append(join.Rows, engine.Row{engine.Int(int64(i)), engine.Str(fmt.Sprintf("L%d", i))})
		}
		st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 1 + tr.Intn(32)})
		p := randomPipeline(tr, join)

		want, werr := p.apply(engine.From(tbl)).Run()
		got, gerr := p.apply(engine.FromStorage(st)).Run()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("trial %d [%s]: error mismatch: mem=%v store=%v", trial, p.desc, werr, gerr)
		}
		if werr != nil {
			continue
		}
		requireSameTable(t, fmt.Sprintf("trial %d [%s]", trial, p.desc), want, got)
	}
}

func TestStorageEquivalenceSpillForced(t *testing.T) {
	r := rng.New(911)
	for trial := 0; trial < 15; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "ev", 50+tr.Intn(150))
		join := &engine.Table{Name: "dim", Schema: engine.Schema{
			{Name: "jid", Type: engine.TypeInt},
			{Name: "label", Type: engine.TypeString},
		}}
		for i := -5; i <= 5; i++ {
			join.Rows = append(join.Rows, engine.Row{engine.Int(int64(i)), engine.Str(fmt.Sprintf("L%d", i))})
		}
		st := writeAndOpen(t, tbl, colstore.Options{SegmentRows: 16})

		// A one-byte budget forces Grace spill on every hash build; the
		// result must still be byte-identical to the unlimited path.
		spillDir := t.TempDir()
		label := fmt.Sprintf("trial %d", trial)

		want, err := engine.From(tbl).Join(join, "id", "jid").Run()
		if err != nil {
			t.Fatalf("%s join mem: %v", label, err)
		}
		got, err := engine.FromStorage(st).Join(join, "id", "jid").
			WithMemoryBudget(1).WithSpillDir(spillDir).Run()
		if err != nil {
			t.Fatalf("%s join spill: %v", label, err)
		}
		requireSameTable(t, label+" spilled join", want, got)

		aggs := []engine.Aggregate{
			{Fn: engine.AggCount, As: "n"},
			{Fn: engine.AggSum, Col: "x", As: "sx"},
			{Fn: engine.AggMin, Col: "id", As: "mid"},
		}
		want, err = engine.From(tbl).GroupBy([]string{"tag", "flag"}, aggs...).Run()
		if err != nil {
			t.Fatalf("%s group mem: %v", label, err)
		}
		got, err = engine.FromStorage(st).GroupBy([]string{"tag", "flag"}, aggs...).
			WithMemoryBudget(1).WithSpillDir(spillDir).Run()
		if err != nil {
			t.Fatalf("%s group spill: %v", label, err)
		}
		requireSameTable(t, label+" spilled group-by", want, got)
	}
}

func TestStorageEquivalenceSQL(t *testing.T) {
	r := rng.New(919)
	tbl := randomTable(r, "ev", 300)
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
	r := rng.New(929)
	tbl := randomTable(r, "ev", 400)
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
// never handed back.
type releaseCount struct {
	*colstore.Store
	parts, released int
}

func (r *releaseCount) ScanPartitions(ctx context.Context, cols []string, pred plan.Expr) (engine.PartitionIter, error) {
	it, err := r.Store.ScanPartitions(ctx, cols, pred)
	if err != nil {
		return nil, err
	}
	return &countIter{PartitionIter: it, r: r}, nil
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
// byte. The later crossing comes after a filter no zone map can judge
// empties the first segments, so partitions holding rows are buffered
// and then handed to the partitioner.
func TestStorageEquivalenceSpilledGroupBy(t *testing.T) {
	r := rng.New(937)
	tbl := randomTable(r, "ev", 300)
	st := &releaseCount{Store: writeAndOpen(t, tbl, colstore.Options{SegmentRows: 16})}
	// late is tbl with the rows keep drops moved to the front.
	keep := func(v float64) bool { return v >= -1 }
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
	lateSt := &releaseCount{Store: writeAndOpen(t, late, colstore.Options{SegmentRows: 16})}
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
		{"late rows", late, lateSt, func(q *engine.Query) *engine.Query { return q.WhereFloat("x", keep) }},
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
