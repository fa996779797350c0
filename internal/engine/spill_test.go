package engine

// Spill-to-disk mechanics: partition counts, metrics, determinism
// across runs, and the fallbacks a failing spill file takes. That a
// spilled join or group-by answers as the in-memory one does is the
// golden lattice's 1-byte-budget points; the equivalence tests here
// drive the shapes that spill hardest through them.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"modeldata/internal/engine/plan"
	"modeldata/internal/rng"
)

// TestSpillJoinEquivalence drives a join whose build side repeats
// every key, which exercises the within-key order a Grace partition
// must keep, through checkPipeline, and requires that each 1-byte
// budget over a non-empty probe side spilled.
func TestSpillJoinEquivalence(t *testing.T) {
	r := rng.New(1201)
	for trial := 0; trial < 20; trial++ {
		tr := r.Split()
		left := randomTable(tr, "l", tr.Intn(120))
		right := &Table{Name: "r", Schema: Schema{
			{Name: "rid", Type: TypeInt},
			{Name: "label", Type: TypeString},
		}}
		for i := -3; i <= 3; i++ {
			for d := 0; d <= tr.Intn(3); d++ {
				right.Rows = append(right.Rows, Row{Int(int64(i)), Str(fmt.Sprintf("L%d.%d", i, d))})
			}
		}
		before := latticeWork.spilled
		checkPipeline(t, tr, left, stJoin(right, "id", "rid"))
		if left.Len() > 0 && latticeWork.spilled == before {
			t.Fatalf("trial %d: no 1-byte-budget join spilled", trial)
		}
	}
}

// TestSpillGroupByEquivalence drives group-bys on one and two keys with
// every aggregate through checkPipeline, and requires that each 1-byte
// budget over a non-empty table spilled.
func TestSpillGroupByEquivalence(t *testing.T) {
	r := rng.New(1301)
	aggs := []Aggregate{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "x", As: "sx"},
		{Fn: AggAvg, Col: "x", As: "ax"},
		{Fn: AggMin, Col: "id", As: "mid"},
		{Fn: AggMax, Col: "x", As: "mx"},
	}
	for trial := 0; trial < 20; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "g", tr.Intn(200))
		keys := [][]string{{"tag"}, {"tag", "flag"}, {"id"}}[tr.Intn(3)]
		before := latticeWork.spilled
		checkPipeline(t, tr, tbl, stGroupBy(keys, aggs...))
		if tbl.Len() > 0 && latticeWork.spilled == before {
			t.Fatalf("trial %d: no 1-byte-budget group-by on %v spilled", trial, keys)
		}
	}
}

func TestSpillDeterministicAcrossRuns(t *testing.T) {
	r := rng.New(1409)
	tbl := randomTable(r, "d", 150)
	right := &Table{Name: "r", Schema: Schema{
		{Name: "rid", Type: TypeInt},
		{Name: "label", Type: TypeString},
	}}
	for i := -3; i <= 3; i++ {
		right.Rows = append(right.Rows, Row{Int(int64(i)), Str("a")})
		right.Rows = append(right.Rows, Row{Int(int64(i)), Str("b")})
	}
	first, err := From(tbl).Join(right, "id", "rid").
		WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	for i := 0; i < 3; i++ {
		again, err := From(tbl).Join(right, "id", "rid").
			WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		requireSameTable(t, fmt.Sprintf("rerun %d", i), first, again)
	}
}

func TestSpillKeylessGroupByNeverSpills(t *testing.T) {
	tbl := randomTable(rng.New(7), "k", 50)
	before := spillPartitions.Value()
	got, err := From(tbl).GroupBy(nil, Aggregate{Fn: AggCount, As: "n"}).
		WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
	if err != nil {
		t.Fatalf("keyless: %v", err)
	}
	if spillPartitions.Value() != before {
		t.Fatal("keyless group-by should not spill (single global group)")
	}
	if len(got.Rows) != 1 || got.Rows[0][0].AsInt() != 50 {
		t.Fatalf("keyless COUNT = %v", got.Rows)
	}
}

func TestSpillMetricsAccount(t *testing.T) {
	tbl := randomTable(rng.New(11), "m", 200)
	right := &Table{Name: "r", Schema: Schema{{Name: "rid", Type: TypeInt}}}
	for i := -3; i <= 3; i++ {
		right.Rows = append(right.Rows, Row{Int(int64(i))})
	}
	parts, bytes := spillPartitions.Value(), spillBytes.Value()
	if _, err := From(tbl).Join(right, "id", "rid").
		WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run(); err != nil {
		t.Fatalf("spilled join: %v", err)
	}
	if spillPartitions.Value() <= parts {
		t.Fatal("colstore.spill_partitions did not advance")
	}
	if spillBytes.Value() <= bytes {
		t.Fatal("colstore.spill_bytes did not advance")
	}
}

func TestSpillBadDirFallsBack(t *testing.T) {
	tbl := randomTable(rng.New(13), "f", 100)
	right := &Table{Name: "r", Schema: Schema{{Name: "rid", Type: TypeInt}}}
	for i := -3; i <= 3; i++ {
		right.Rows = append(right.Rows, Row{Int(int64(i))})
	}
	want, err := From(tbl).Join(right, "id", "rid").Run()
	if err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	fb := spillFallbacks.Value()
	got, err := From(tbl).Join(right, "id", "rid").
		WithMemoryBudget(1).WithSpillDir("/dev/null/not-a-dir").Run()
	if err != nil {
		t.Fatalf("bad spill dir should fall back in-memory, got %v", err)
	}
	if spillFallbacks.Value() <= fb {
		t.Fatal("colstore.spill_fallbacks did not advance")
	}
	requireSameTable(t, "fallback join", want, got)
}

func TestSpillPartitionCount(t *testing.T) {
	cases := []struct {
		est, budget int64
		want        int
	}{
		{100, 1000, 2},    // fits after halving: floor of 2
		{1000, 100, 16},   // needs est/p <= budget
		{1 << 40, 1, 128}, // clamped at 128
	}
	for _, tc := range cases {
		if got := spillPartitionCount(tc.est, tc.budget); got != tc.want {
			t.Fatalf("spillPartitionCount(%d, %d) = %d, want %d", tc.est, tc.budget, got, tc.want)
		}
	}
}

// The storage-source twin of TestSpillBadDirFallsBack: a streamed
// group-by that cannot create its spill file at the crossing keeps
// buffering and groups in memory.
func TestSpillStreamBadDirFallsBack(t *testing.T) {
	tbl := randomTable(rng.New(13), "f", 100)
	aggs := []Aggregate{{Fn: AggCount, As: "n"}, {Fn: AggSum, Col: "x", As: "sx"}}
	want, err := From(tbl).GroupBy([]string{"id"}, aggs...).Run()
	if err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	fb := spillFallbacks.Value()
	got, err := FromStorage(tbl).GroupBy([]string{"id"}, aggs...).
		WithMemoryBudget(1).WithSpillDir("/dev/null/not-a-dir").Run()
	if err != nil {
		t.Fatalf("bad spill dir should fall back in-memory, got %v", err)
	}
	if spillFallbacks.Value() != fb+1 {
		t.Fatalf("colstore.spill_fallbacks moved by %d, want 1", spillFallbacks.Value()-fb)
	}
	requireSameTable(t, "fallback group-by", want, got)
}

// memSpill is a spill file in memory whose writes fail once they would
// take it past failAfter bytes (never when negative), and whose reads
// fail when failRead is set.
type memSpill struct {
	buf       []byte
	failAfter int
	failRead  bool
}

var errSpillTest = errors.New("memSpill: injected I/O error")

func (m *memSpill) WriteAt(p []byte, off int64) (int, error) {
	end := int(off) + len(p)
	if m.failAfter >= 0 && end > m.failAfter {
		return 0, errSpillTest
	}
	if end > len(m.buf) {
		m.buf = append(m.buf, make([]byte, end-len(m.buf))...)
	}
	return copy(m.buf[off:], p), nil
}

func (m *memSpill) ReadAt(p []byte, off int64) (int, error) {
	if m.failRead || int(off)+len(p) > len(m.buf) {
		return 0, errSpillTest
	}
	return copy(p, m.buf[off:]), nil
}

func (m *memSpill) Close() error { return nil }

// fatTable has records longer than a window's spare room (long
// strings) over few groups, so windows fill and runs reach the spill
// file while rows are still being added.
func fatTable(n int) *Table {
	t := MustNewTable("fat", Schema{{Name: "k", Type: TypeInt}, {Name: "s", Type: TypeString}, {Name: "x", Type: TypeFloat}})
	for i := 0; i < n; i++ {
		s := strings.Repeat(string(rune('a'+i%26)), 300+i%700)
		t.MustInsert(Int(int64(i%5)), Str(s), Float(float64(i)/3))
	}
	return t
}

// A streamed group-by whose spill fails still answers as the in-memory
// group-by does and counts one colstore.spill_fallbacks: with no spill
// file at the crossing it keeps buffering; once rows have reached the
// file — a write or a read failing — it scans the storage again.
func TestSpillStreamFallsBack(t *testing.T) {
	tbl := fatTable(400)
	aggs := []Aggregate{{Fn: AggCount, As: "n"}, {Fn: AggMax, Col: "s", As: "ms"}, {Fn: AggSum, Col: "x", As: "sx"}}
	late := plan.Cmp{Op: ">", Col: "x", Val: plan.FloatLit(18)}
	want, err := From(tbl).WhereExpr(late).GroupBy([]string{"k"}, aggs...).Run()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		open          func(string) (spillFile, error)
		scans, fbacks int
		buffered      int // partitions of the first scan never released
	}{
		{"spills", func(string) (spillFile, error) { return &memSpill{failAfter: -1}, nil }, 1, 0, 1},
		{"no spill file", func(string) (spillFile, error) { return nil, errSpillTest }, 1, 1, 7},
		{"write fails mid-stream", func(string) (spillFile, error) { return &memSpill{failAfter: 40 << 10}, nil }, 2, 1, 1},
		{"read fails", func(string) (spillFile, error) { return &memSpill{failAfter: -1, failRead: true}, nil }, 2, 1, 1},
	}
	for _, tc := range cases {
		st := &chunked{Storage: tbl, n: 64}
		q := FromStorage(st).WhereExpr(late).GroupBy([]string{"k"}, aggs...)
		// The first partition keeps 9 of its 64 rows, whose estimate
		// projected to the table's 400 fits the budget: the projection
		// crosses in the second partition, with the first buffered.
		ch := &chain{sc: NewScratch(), budget: 100 * hashEntryBytes, openSpill: tc.open}
		fb, parts := spillFallbacks.Value(), spillPartitions.Value()
		start, err := q.source(ch, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if start != len(q.ops) {
			t.Fatalf("%s: source applied %d ops, want the group-by too (%d)", tc.name, start, len(q.ops))
		}
		if len(st.scans) != tc.scans || spillFallbacks.Value()-fb != int64(tc.fbacks) {
			t.Fatalf("%s: %d scans and %d fallbacks, want %d and %d",
				tc.name, len(st.scans), spillFallbacks.Value()-fb, tc.scans, tc.fbacks)
		}
		if spilled := spillPartitions.Value() > parts; spilled != (tc.fbacks == 0) {
			t.Fatalf("%s: spilled=%v", tc.name, spilled)
		}
		if c := st.scans[0]; c.parts-c.released != tc.buffered {
			t.Fatalf("%s: %d of the first scan's %d partitions kept, want %d", tc.name, c.parts-c.released, c.parts, tc.buffered)
		}
		requireSameTable(t, tc.name, want, ch.b.ToTable())

		// A group-by over an in-memory state falls back without a rescan.
		tq := From(tbl).GroupBy([]string{"k"}, aggs...)
		ch = &chain{b: mustBlock(t, tbl), sc: NewScratch(), budget: 1, openSpill: tc.open}
		fb = spillFallbacks.Value()
		out, err := ch.groupBy(tq.ops[0])
		if err != nil || spillFallbacks.Value()-fb != int64(tc.fbacks) {
			t.Fatalf("%s, in-memory state: %v, %d fallbacks", tc.name, err, spillFallbacks.Value()-fb)
		}
		requireSameTable(t, tc.name+", in-memory state", tq.MustRun(), out.ToTable())
	}
}

// Records longer than a window's spare room grow their window off the
// slab; a long join key does the same on the join's side.
func TestSpillLongRecords(t *testing.T) {
	tbl := fatTable(300)
	aggs := []Aggregate{{Fn: AggMin, Col: "s", As: "mn"}, {Fn: AggAvg, Col: "x", As: "ax"}}
	want := From(tbl).GroupBy([]string{"s"}, aggs...).MustRun()
	got := From(tbl).GroupBy([]string{"s"}, aggs...).WithMemoryBudget(1).WithSpillDir(t.TempDir()).MustRun()
	requireSameTable(t, "long string keys", want, got)

	dim := MustNewTable("dim", Schema{{Name: "ds", Type: TypeString}, {Name: "v", Type: TypeInt}})
	for i := 0; i < 40; i++ {
		dim.MustInsert(tbl.Rows[i*7][1], Int(int64(i)))
	}
	want = From(tbl).Join(dim, "s", "ds").MustRun()
	got = From(tbl).Join(dim, "s", "ds").WithMemoryBudget(1).WithSpillDir(t.TempDir()).MustRun()
	requireSameTable(t, "long string join keys", want, got)
}
