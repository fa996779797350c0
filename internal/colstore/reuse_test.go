package colstore_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"modeldata/internal/colstore"
	"modeldata/internal/engine"
)

// firstInt is the address of the first value of b's column 0, an int
// column: two blocks with the same one share that vector.
func firstInt(t *testing.T, b *engine.ColumnBlock) *int64 {
	t.Helper()
	v, err := b.Vec(0)
	if err != nil {
		t.Fatal(err)
	}
	return &v.([]int64)[:1][0]
}

// sameRows reports whether two blocks hold the same rows, bit for bit.
func sameRows(a, b *engine.ColumnBlock) bool {
	ra, rb := a.ToTable().Rows, b.ToTable().Rows
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		for j := range ra[i] {
			if ra[i][j] != rb[i][j] {
				return false
			}
		}
	}
	return true
}

// A scan decodes each segment into the vectors of the block released
// before it, and into no other: a kept block, a block derived from the
// last one, or another scan's block is never overwritten.
func TestScanReusesReleasedVectors(t *testing.T) {
	const segRows, segs = 4096, 9
	st := writeAndOpen(t, seqTable("r", (segs-1)*segRows+1000), colstore.Options{SegmentRows: segRows})
	if segments(st) != segs {
		t.Fatalf("%d segments, want %d", segments(st), segs)
	}
	scan := func() engine.PartitionIter {
		it, err := st.ScanPartitions(context.Background(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
	next := func(it engine.PartitionIter) *engine.ColumnBlock {
		b, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fresh := drain(t, scan())

	// Releasing every block, the scan decodes all of them into the
	// first one's vectors: it allocates one segment's vectors, not
	// nine. Every segment still gets its own string slab.
	allocated := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	vectors := uint64(segRows * (8 + 8 + 16 + 1)) // one segment's id, x, tag, flag
	kept := allocated(func() { drain(t, scan()) })
	released := allocated(func() {
		it := scan()
		for b := next(it); b != nil; b = next(it) {
			it.Release(b)
		}
	})
	if kept < segs*vectors*3/4 || released > 2*vectors+64<<10 {
		t.Fatalf("a scan allocated %d bytes keeping its blocks and %d releasing them; one segment's vectors are %d bytes",
			kept, released, vectors)
	}

	// Block 3 is kept; the rest are released as they are read.
	it := scan()
	var got []*engine.ColumnBlock
	for b := next(it); b != nil; b = next(it) {
		if i := len(got); i > 0 && i != 4 && firstInt(t, b) != firstInt(t, got[i-1]) {
			t.Fatalf("block %d did not reuse the released block's vectors", i)
		}
		got = append(got, b)
		if len(got) != 4 {
			it.Release(b)
		}
	}
	if len(got) != segs || got[segs-1].Len() != 1000 {
		t.Fatalf("%d blocks, the last of %d rows", len(got), got[len(got)-1].Len())
	}
	if firstInt(t, got[4]) == firstInt(t, got[3]) || !sameRows(got[3], fresh[3]) {
		t.Fatal("the kept block was overwritten")
	}
	if !sameRows(got[segs-1], fresh[segs-1]) {
		t.Fatal("the short last segment decoded into a reused vector differs from a fresh decode")
	}

	// Releasing a block derived from the last one, or another scan's
	// block, hands nothing back.
	it, other := scan(), scan()
	b := next(it)
	theirs := next(other)
	sel, err := b.WhereEq("tag", engine.Str("b"))
	if err != nil {
		t.Fatal(err)
	}
	proj, err := b.Project("id", "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*engine.ColumnBlock{sel.Dense(), proj, theirs, nil} {
		it.Release(d)
	}
	if firstInt(t, next(it)) == firstInt(t, b) || firstInt(t, next(other)) == firstInt(t, theirs) {
		t.Fatal("a scan reused vectors it was not handed back")
	}
	if !sameRows(b, fresh[0]) || !sameRows(theirs, fresh[0]) {
		t.Fatal("a block that was not released was overwritten")
	}

	// Two releasing scans of one store at once each see every block.
	var wg sync.WaitGroup
	errs := make([]string, 2)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			it, err := st.ScanPartitions(context.Background(), nil, nil)
			if err != nil {
				errs[g] = err.Error()
				return
			}
			for i := 0; ; i++ {
				b, err := it.Next()
				if err != nil || b == nil {
					if err != nil || i != segs {
						errs[g] = "scan ended early"
					}
					return
				}
				if !sameRows(b, fresh[i]) {
					errs[g] = "blocks differ from a fresh scan's"
					return
				}
				it.Release(b)
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("concurrent scan %d: %s", g, e)
		}
	}
}
