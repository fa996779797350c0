package colstore

// Store: the on-disk implementation of engine.Storage. Open parses
// only segment footers (zone maps, offsets, checksums); scans decode
// the columns they were asked for, segment by segment, verifying each
// block's checksum and skipping whole segments the zone maps prove
// predicate-free. A Store is immutable
// after Open and safe for concurrent scans — each segment read opens
// its own file handle.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"modeldata/internal/engine"
	"modeldata/internal/engine/plan"
	"modeldata/internal/obs"
)

// Metric names reported by colstore into obs.Default().
const (
	// MetricSegmentsScanned counts segments actually decoded by scans.
	MetricSegmentsScanned = "colstore.segments_scanned"
	// MetricBlocksPruned counts column blocks skipped without decode
	// because a segment's zone maps refuted the scan predicate.
	MetricBlocksPruned = "colstore.blocks_pruned"
	// MetricBlocksDecoded counts column blocks read, verified and
	// decoded: a scan of k columns adds k per surviving segment.
	MetricBlocksDecoded = "colstore.blocks_decoded"
	// MetricBytesRead counts the block bytes those decodes read.
	MetricBytesRead = "colstore.bytes_read"
)

var (
	segmentsScanned = obs.Default().Counter(MetricSegmentsScanned)
	blocksPruned    = obs.Default().Counter(MetricBlocksPruned)
	blocksDecoded   = obs.Default().Counter(MetricBlocksDecoded)
	bytesRead       = obs.Default().Counter(MetricBytesRead)
)

// Store is an opened segment directory.
type Store struct {
	name   string
	schema engine.Schema
	segs   []*segMeta // footer per segment, file-name order
	rows   int64
}

// Open reads the footers of every seg-*.mdcs file under dir (sorted by
// file name, which is write order) and validates that all segments
// agree on relation name and schema.
func Open(dir string, _ Options) (*Store, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.mdcs"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("colstore: no segments under %q", dir)
	}
	sort.Strings(paths)
	st := &Store{}
	// bounded by the segment files present on disk
	st.segs = make([]*segMeta, 0, len(paths))
	for _, p := range paths {
		sm, err := readFooter(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(st.segs) == 0 {
			st.name = sm.name
			st.schema = sm.schema()
		} else {
			if sm.name != st.name {
				return nil, fmt.Errorf("%w: segment %s is relation %q, store is %q", ErrCorrupt, p, sm.name, st.name)
			}
			if !sm.schema().Equal(st.schema) {
				return nil, fmt.Errorf("%w: segment %s schema differs", ErrCorrupt, p)
			}
		}
		st.rows += sm.rows
		st.segs = append(st.segs, sm)
	}
	return st, nil
}

// readFooter opens one segment file and parses its footer.
func readFooter(path string) (*segMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readFooterAt(path, f, fi.Size())
}

// readFooterAt locates, checksums, and parses the footer of a segment
// of the given size.
func readFooterAt(path string, f io.ReaderAt, size int64) (*segMeta, error) {
	if size < int64(headerBytes+sumBytes+trailerBytes) {
		return nil, fmt.Errorf("%w: file too short", ErrCorrupt)
	}
	var head [headerBytes]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if string(head[:4]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if head[4] != segVersion {
		return nil, fmt.Errorf("%w: segment format version %d, this build reads only version %d",
			ErrCorrupt, head[4], segVersion)
	}
	var trailer [trailerBytes]byte
	if _, err := f.ReadAt(trailer[:], size-trailerBytes); err != nil {
		return nil, err
	}
	if string(trailer[:4]) != segTrailer {
		return nil, fmt.Errorf("%w: bad trailer", ErrCorrupt)
	}
	footerLen := binary.BigEndian.Uint64(trailer[4:])
	footerEnd := size - trailerBytes - sumBytes // footer checksum precedes trailer
	if footerLen == 0 || footerLen > uint64(footerEnd-int64(headerBytes)) {
		return nil, fmt.Errorf("%w: implausible footer length %d", ErrCorrupt, footerLen)
	}
	footerStart := footerEnd - int64(footerLen)
	// bounded by the trailer's validated footer length
	buf := make([]byte, footerLen+sumBytes)
	if _, err := f.ReadAt(buf, footerStart); err != nil {
		return nil, err
	}
	footer := buf[:footerLen]
	if checksum(footer) != binary.BigEndian.Uint32(buf[footerLen:]) {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	return parseFooter(path, footer, footerStart)
}

// StorageName implements engine.Storage.
func (st *Store) StorageName() string { return st.name }

// StorageSchema implements engine.Storage.
func (st *Store) StorageSchema() engine.Schema { return st.schema.Clone() }

// NumRows implements engine.Storage.
func (st *Store) NumRows() int64 { return st.rows }

// colProjection resolves cols (nil = all) to column indexes.
func (st *Store) colProjection(cols []string) ([]int, error) {
	if cols == nil {
		idx := make([]int, len(st.schema))
		for j := range idx {
			idx[j] = j
		}
		return idx, nil
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := st.schema.ColIndex(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	return idx, nil
}

// ScanPartitions implements engine.Storage: each segment is one
// partition. Only the blocks of cols are read. pred is a pruning hint
// only — segments whose zone maps cannot satisfy it are skipped whole
// (every projected block counted as pruned); surviving segments decode
// and stream back in file order, so concatenated scan output is
// deterministic.
func (st *Store) ScanPartitions(ctx context.Context, cols []string, pred plan.Expr) (engine.PartitionIter, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	proj, err := st.colProjection(cols)
	if err != nil {
		return nil, err
	}
	return &segIter{st: st, ctx: ctx, proj: proj, pred: pred}, nil
}

// PlanScan implements engine.ScanPlanner: it predicts the partition
// count, pruned-block count and decoded row count of a scan of cols
// (nil = all) from footers alone, counting a pruned segment's blocks as
// Next does: one per projected column.
func (st *Store) PlanScan(cols []string, pred plan.Expr) (partitions, pruned, rows int64) {
	partitions = int64(len(st.segs))
	if pred == nil {
		return partitions, 0, st.rows
	}
	perSeg := int64(len(st.schema))
	if cols != nil {
		perSeg = int64(len(cols))
	}
	for _, sm := range st.segs {
		if engine.ZoneMayMatch(pred, sm.zoneStats()) {
			rows += sm.rows
		} else {
			pruned += perSeg
		}
	}
	return partitions, pruned, rows
}

// zoneStats adapts a segment's footer to the zone evaluator's lookup.
func (sm *segMeta) zoneStats() func(string) (engine.ZoneMap, bool) {
	return func(col string) (engine.ZoneMap, bool) {
		for i := range sm.cols {
			if strings.EqualFold(sm.cols[i].name, col) {
				return sm.cols[i].zone, true
			}
		}
		return engine.ZoneMap{}, false
	}
}

// segIter streams a store's segments as partitions. It keeps one spare
// vector set: the vectors of the block it returned last, once the
// caller releases that block, which the next segment decodes into.
type segIter struct {
	st    *Store
	ctx   context.Context
	proj  []int
	pred  plan.Expr
	next  int
	stats engine.ScanStats
	// buf is the block read buffer, reused across the scan's segments.
	// bounded by the largest projected block (see readBlock)
	buf []byte
	// last is the block Next returned last and vecs its vectors, until
	// it is released; spare is the released set, nil when there is none.
	last  *engine.ColumnBlock
	vecs  []any
	spare []any
}

// Next implements engine.PartitionIter.
func (it *segIter) Next() (*engine.ColumnBlock, error) {
	it.last, it.vecs = nil, nil
	for it.next < len(it.st.segs) {
		if err := it.ctx.Err(); err != nil {
			return nil, err
		}
		sm := it.st.segs[it.next]
		it.next++
		it.stats.Partitions++
		if it.pred != nil && !engine.ZoneMayMatch(it.pred, sm.zoneStats()) {
			blocksPruned.Add(int64(len(it.proj)))
			continue
		}
		b, vecs, buf, err := decodeSegment(sm, it.proj, it.buf, it.spare)
		it.buf, it.spare = buf, nil
		if err != nil {
			return nil, err
		}
		it.last, it.vecs = b, vecs
		var size int64
		for _, j := range it.proj {
			size += sm.cols[j].size
		}
		it.stats.Scanned++
		segmentsScanned.Add(1)
		blocksDecoded.Add(int64(len(it.proj)))
		bytesRead.Add(size)
		return b, nil
	}
	return nil, nil
}

// Release implements engine.PartitionIter: the vectors of the block
// Next returned last become the spare set. Any other block is ignored.
func (it *segIter) Release(b *engine.ColumnBlock) {
	if b != nil && b == it.last {
		it.spare, it.last, it.vecs = it.vecs, nil, nil
	}
}

// Stats implements engine.PartitionIter.
func (it *segIter) Stats() engine.ScanStats { return it.stats }
