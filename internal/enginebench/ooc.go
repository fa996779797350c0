// Package enginebench is the out-of-core fixture the repository
// benchmark imports: bench/batch.go calls BuildOOCStore for the
// batch_ooc workload, and its oracle counts the rows and gid groups
// written here. It lives outside bench/ only because a change to
// bench/ has to be a benchmark change of its own; the data is pinned
// by ooc_test.go until it moves.
//
// Data builds segment-by-segment from typed vectors — never
// materializing boxed rows — so a 10⁷-row relation costs one segment
// buffer, not ten million engine.Row allocations. The `id` column is
// sequential, clustering segments into disjoint id ranges that a
// BETWEEN predicate can prune via zone maps; `gid` is a small-domain
// group key and `val`/`tag` give the aggregates real work.
package enginebench

import (
	"fmt"

	"modeldata/internal/colstore"
	"modeldata/internal/engine"
	"modeldata/internal/rng"
)

// oocGidDomain is the group-by key cardinality.
const oocGidDomain = 1024

// oocSchema is the out-of-core fact relation's layout.
var oocSchema = engine.Schema{
	{Name: "id", Type: engine.TypeInt}, // sequential: clustered, prunable
	{Name: "gid", Type: engine.TypeInt},
	{Name: "val", Type: engine.TypeFloat},
	{Name: "tag", Type: engine.TypeString},
}

// BuildOOCStore writes the rows-row fact relation as segments under
// dir, segRows rows per segment (0 = colstore's default).
func BuildOOCStore(dir string, rows, segRows int) error {
	w, err := colstore.NewWriter(dir, "ooc", oocSchema, colstore.Options{SegmentRows: segRows})
	if err != nil {
		return err
	}
	r := rng.New(0x00c)
	chunk := segRows
	if chunk <= 0 {
		chunk = colstore.DefaultSegmentRows
	}
	tags := make([]string, 16)
	for i := range tags {
		tags[i] = fmt.Sprintf("t%02d", i)
	}
	for lo := 0; lo < rows; lo += chunk {
		n := chunk
		if lo+n > rows {
			n = rows - lo
		}
		// bounded by the segment chunk size
		ids := make([]int64, n)
		gids := make([]int64, n)
		vals := make([]float64, n)
		tagv := make([]string, n)
		for i := 0; i < n; i++ {
			ids[i] = int64(lo + i)
			gids[i] = int64(r.Intn(oocGidDomain))
			vals[i] = r.Float64()
			tagv[i] = tags[r.Intn(len(tags))]
		}
		b, err := engine.BlockOf("ooc", oocSchema, []any{ids, gids, vals, tagv})
		if err != nil {
			return err
		}
		if err := w.AppendBlock(b); err != nil {
			return err
		}
	}
	return w.Close()
}
