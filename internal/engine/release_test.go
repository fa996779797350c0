package engine

import (
	"context"
	"math"
	"testing"

	"modeldata/internal/engine/plan"
)

// chunked is a Storage over another one that cuts every partition of
// it into dense partitions of n rows (n = 0 hands them on as they
// are) and records, scan by scan, the partitions it hands out and the
// ones handed back. It scribbles over every released partition the way
// a reusing scan decodes the next one into it: an operator that still
// read a released partition would answer wrongly.
type chunked struct {
	Storage
	n     int
	scans []*countingIter
}

func (c *chunked) ScanPartitions(ctx context.Context, cols []string, pred plan.Expr) (PartitionIter, error) {
	it, err := c.Storage.ScanPartitions(ctx, cols, pred)
	if err != nil {
		return nil, err
	}
	if c.n > 0 {
		ch := &chunkIter{PartitionIter: it}
		for {
			b, err := it.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			for lo := 0; lo < b.Len(); lo += c.n {
				sel := make([]int32, 0, c.n)
				for i := lo; i < lo+c.n && i < b.Len(); i++ {
					sel = append(sel, int32(i))
				}
				ch.parts = append(ch.parts, b.withSel(sel).Dense())
			}
		}
		it = ch
	}
	ci := &countingIter{PartitionIter: it}
	c.scans = append(c.scans, ci)
	return ci, nil
}

// chunkIter hands out the partitions chunked cut, which are its own.
type chunkIter struct {
	PartitionIter
	parts []*ColumnBlock
}

func (it *chunkIter) Next() (*ColumnBlock, error) {
	if len(it.parts) == 0 {
		return nil, nil
	}
	b := it.parts[0]
	it.parts = it.parts[1:]
	return b, nil
}

func (it *chunkIter) Release(*ColumnBlock) {}

type countingIter struct {
	PartitionIter
	last                   *ColumnBlock
	parts, released, stray int
}

func (c *countingIter) Next() (*ColumnBlock, error) {
	b, err := c.PartitionIter.Next()
	c.last = b
	if b != nil {
		c.parts++
	}
	return b, err
}

func (c *countingIter) Release(b *ColumnBlock) {
	if b == nil || b != c.last {
		c.stray++
	} else {
		c.released++
		c.last = nil
		scribble(b)
	}
	c.PartitionIter.Release(b)
}

// scribble overwrites every value of b's vectors.
func scribble(b *ColumnBlock) {
	for j := range b.cols {
		cv := &b.cols[j]
		for i := range cv.ints {
			cv.ints[i] = -0x5a5a5a5a
		}
		for i := range cv.floats {
			cv.floats[i] = math.NaN()
		}
		for i := range cv.strs {
			cv.strs[i] = "released"
		}
		for i := range cv.bools {
			cv.bools[i] = !cv.bools[i]
		}
	}
}

// Each scan consumer hands back exactly the partitions it no longer
// references, and answers as the in-memory run does although every
// partition it released has been overwritten.
func TestScanConsumersReleaseWhatTheyDrop(t *testing.T) {
	tbl := MustNewTable("fact", Schema{
		{Name: "id", Type: TypeInt}, {Name: "k", Type: TypeInt},
		{Name: "x", Type: TypeFloat}, {Name: "s", Type: TypeString},
	})
	for i := 0; i < 1000; i++ {
		tbl.MustInsert(Int(int64(i)), Int(int64(i%7)), Float(float64(i%97)/3), Str(string(rune('a'+i%26))))
	}
	dim := MustNewTable("dim", Schema{{Name: "dk", Type: TypeInt}, {Name: "label", Type: TypeString}})
	for i := 0; i < 5; i++ {
		dim.MustInsert(Int(int64(i)), Str("d"))
	}
	const parts = 10 // partitions of 100 rows
	late := plan.Cmp{Col: "id", Op: ">=", Val: plan.IntLit(500)}
	some := plan.Cmp{Col: "x", Op: ">", Val: plan.FloatLit(20)}
	aggs := []Aggregate{{Fn: AggCount, As: "n"}, {Fn: AggMax, Col: "s", As: "ms"}, {Fn: AggSum, Col: "x", As: "sx"}}
	spill := func(q *Query) *Query { return q.WithMemoryBudget(1).WithSpillDir(t.TempDir()) }

	cases := []struct {
		name     string
		build    func(*Query) *Query
		count    bool
		released int
	}{
		{"filtered count", func(q *Query) *Query { return q.WhereExpr(some) }, true, parts},
		{"filtered concat", func(q *Query) *Query { return q.WhereExpr(some).OrderBy("x", false) }, false, parts},
		{"unfiltered concat", func(q *Query) *Query { return q.OrderBy("x", true) }, false, 0},
		{"projected concat", func(q *Query) *Query { return q.Select("k", "s") }, false, 0},
		{"streamed join", func(q *Query) *Query { return q.Join(dim, "k", "dk") }, false, parts},
		{"filtered streamed join", func(q *Query) *Query { return q.WhereExpr(some).Join(dim, "k", "dk") }, false, parts},
		{"spilled group-by", func(q *Query) *Query { return spill(q.GroupBy([]string{"k"}, aggs...)) }, false, parts},
		// The first five partitions keep no row, so the estimate stays
		// at 0 and they are buffered until the sixth crosses the budget.
		{"spilled group-by after buffering", func(q *Query) *Query {
			return spill(q.WhereExpr(late).GroupBy([]string{"k"}, aggs...))
		}, false, parts - 5},
		{"in-memory group-by", func(q *Query) *Query { return q.GroupBy([]string{"k"}, aggs...) }, false, 0},
	}
	for _, tc := range cases {
		st := &chunked{Storage: tbl, n: 100}
		want, got := tc.build(From(tbl)), tc.build(FromStorage(st))
		if tc.count {
			n, err := got.Count()
			m, merr := want.Count()
			if err != nil || merr != nil || n != m {
				t.Fatalf("%s: count %d (%v), want %d (%v)", tc.name, n, err, m, merr)
			}
		} else {
			out, err := got.Run()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			requireSameTable(t, tc.name, want.MustRun(), out)
		}
		if len(st.scans) != 1 {
			t.Fatalf("%s: %d scans, want 1", tc.name, len(st.scans))
		}
		if c := st.scans[0]; c.parts != parts || c.released != tc.released || c.stray != 0 {
			t.Fatalf("%s: %d of %d partitions released (%d stray releases), want %d",
				tc.name, c.released, c.parts, c.stray, tc.released)
		}
	}

	// After a spill fails with rows on disk, the storage is scanned
	// again, and the in-memory group-by of that rescan keeps all of it.
	st := &chunked{Storage: tbl, n: 100}
	q := FromStorage(st).WhereExpr(some).GroupBy([]string{"k"}, aggs...)
	failing := func(string) (spillFile, error) { return &memSpill{failAfter: 0}, nil }
	ch := &chain{sc: NewScratch(), budget: 1, openSpill: failing}
	if _, err := q.source(ch, true); err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, "after a failed spill", From(tbl).WhereExpr(some).GroupBy([]string{"k"}, aggs...).MustRun(), ch.b.ToTable())
	if len(st.scans) != 2 {
		t.Fatalf("%d scans after a failed spill, want 2", len(st.scans))
	}
	if first, rescan := st.scans[0], st.scans[1]; first.released != parts || rescan.released != 0 || first.stray+rescan.stray != 0 {
		t.Fatalf("released %d of the spilling scan's %d partitions and %d of the rescan's %d (%d stray), want all and none",
			first.released, first.parts, rescan.released, rescan.parts, first.stray+rescan.stray)
	}
}
