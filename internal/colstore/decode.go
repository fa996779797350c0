package colstore

// Segment decode: reading column blocks back into engine vectors. Each
// block reads with one positioned read (its footer offset/length) into
// a buffer the scan reuses, verifies its CRC-32C, then decodes into a
// typed vector that engine.BlockOf assembles without row boxing: a
// fresh one, or one of the partition the scan's consumer released.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"modeldata/internal/engine"
)

// decodeSegment reads the projected columns of one segment into an
// engine.ColumnBlock. buf is the scan's read buffer, returned grown.
// into, when non-nil, is a vector set of an earlier segment of the same
// projection that nothing references any more: each column decodes
// into its vector when it has room, and the set is returned with the
// block's vectors in it. nil means allocate.
func decodeSegment(sm *segMeta, proj []int, buf []byte, into []any) (*engine.ColumnBlock, []any, []byte, error) {
	f, err := os.Open(sm.path)
	if err != nil {
		return nil, nil, buf, err
	}
	defer f.Close() // read-only descriptor; close errors carry no data loss

	outSchema := make(engine.Schema, len(proj))
	vecs := into
	if vecs == nil {
		// bounded by the projected column count
		vecs = make([]any, len(proj))
	}
	for i, j := range proj {
		cm := &sm.cols[j]
		outSchema[i] = engine.Column{Name: cm.name, Type: cm.typ}
		if vecs[i], buf, err = readBlock(f, cm, int(sm.rows), buf, vecs[i]); err != nil {
			return nil, nil, buf, fmt.Errorf("%s: column %q: %w", sm.path, cm.name, err)
		}
	}
	b, err := engine.BlockOf(sm.name, outSchema, vecs)
	return b, vecs, buf, err
}

// readBlock fetches one column block into buf (grown to the largest
// block seen), verifies its checksum and decodes it, into the vector
// into when it has room (nil = allocate). Nothing decoded aliases buf,
// so the next block may overwrite it.
func readBlock(r io.ReaderAt, cm *colMeta, rows int, buf []byte, into any) (any, []byte, error) {
	if int64(cap(buf)) < cm.size {
		// bounded by the column's block size, which parseFooter checked
		// against the file's length
		buf = make([]byte, cm.size)
	}
	raw := buf[:cm.size]
	if _, err := r.ReadAt(raw, cm.off); err != nil {
		return nil, buf, err
	}
	if checksum(raw) != cm.sum {
		return nil, buf, fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
	}
	vec, err := decodeBlock(raw, cm.typ, rows, into)
	return vec, buf, err
}

// decodeBlock decodes one column block's bytes into a typed vector
// that shares no memory with raw. The vector is into, resliced, when
// into is a non-nil vector of the type with room for rows values; nil
// (or any other into) means a fresh one. Every allocation is bounded by
// len(raw): a block that cannot hold rows values is refused before into
// is touched.
func decodeBlock(raw []byte, typ engine.Type, rows int, into any) (any, error) {
	if rows < 0 || !blockHolds(typ, uint64(len(raw)), uint64(rows)) {
		return nil, fmt.Errorf("%w: %s block of %d bytes cannot hold %d values", ErrCorrupt, typ, len(raw), rows)
	}
	switch typ {
	case engine.TypeInt:
		v := vector[int64](into, rows)
		for i := range v {
			v[i] = int64(binary.BigEndian.Uint64(raw[i*8 : i*8+8]))
		}
		return v, nil
	case engine.TypeFloat:
		v := vector[float64](into, rows)
		for i := range v {
			v[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[i*8 : i*8+8]))
		}
		return v, nil
	case engine.TypeString:
		// One conversion of the slab; each value is a substring of it.
		// The values therefore keep the whole block alive, which is what
		// a scan wants: its rows live and die together. A reused vector
		// still gets a fresh slab, since the values it held may live on
		// elsewhere; only the slots past rows are cleared, so they stop
		// holding the old one.
		s := string(raw)
		v := vector[string](into, rows)
		clear(v[rows:cap(v)])
		pos := 0
		for i := range v {
			n, w := uint64(0), 1
			if pos < len(s) && s[pos] < 0x80 {
				n = uint64(s[pos])
			} else if n, w = binary.Uvarint(raw[pos:]); w <= 0 {
				return nil, fmt.Errorf("%w: truncated string block", ErrCorrupt)
			}
			pos += w
			if n > uint64(len(s)-pos) {
				return nil, fmt.Errorf("%w: truncated string block", ErrCorrupt)
			}
			v[i] = s[pos : pos+int(n)]
			pos += int(n)
		}
		if pos != len(s) {
			return nil, fmt.Errorf("%w: %d trailing string-block bytes", ErrCorrupt, len(s)-pos)
		}
		return v, nil
	case engine.TypeBool:
		v := vector[bool](into, rows)
		for i := range v {
			v[i] = raw[i] != 0
		}
		return v, nil
	}
	return nil, fmt.Errorf("%w: unknown column type %d", ErrCorrupt, typ)
}

// vector returns into as a length-rows []T when it is a non-nil []T
// with room, and a fresh one otherwise. A zero-row result is never nil:
// engine.BlockOf reads a nil vector as a missing column.
func vector[T any](into any, rows int) []T {
	if v, ok := into.([]T); ok && v != nil && cap(v) >= rows {
		return v[:rows]
	}
	// bounded by rows, which blockHolds checked against the block's bytes
	return make([]T, rows)
}
