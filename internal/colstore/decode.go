package colstore

// Segment decode: reading column blocks back into engine vectors. Each
// block reads with one positioned read (its footer offset/length) into
// a buffer the scan reuses, verifies its CRC-32C, then decodes into a
// typed vector that engine.BlockOf assembles without row boxing.

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
func decodeSegment(sm *segMeta, proj []int, buf []byte) (*engine.ColumnBlock, []byte, error) {
	f, err := os.Open(sm.path)
	if err != nil {
		return nil, buf, err
	}
	defer f.Close() // read-only descriptor; close errors carry no data loss

	outSchema := make(engine.Schema, len(proj))
	vecs := make([]any, len(proj))
	for i, j := range proj {
		cm := &sm.cols[j]
		outSchema[i] = engine.Column{Name: cm.name, Type: cm.typ}
		if vecs[i], buf, err = readBlock(f, cm, int(sm.rows), buf); err != nil {
			return nil, buf, fmt.Errorf("%s: column %q: %w", sm.path, cm.name, err)
		}
	}
	b, err := engine.BlockOf(sm.name, outSchema, vecs)
	return b, buf, err
}

// readBlock fetches one column block into buf (grown to the largest
// block seen), verifies its checksum and decodes it. Nothing decoded
// aliases buf, so the next block may overwrite it.
func readBlock(r io.ReaderAt, cm *colMeta, rows int, buf []byte) (any, []byte, error) {
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
	vec, err := decodeBlock(raw, cm.typ, rows)
	return vec, buf, err
}

// decodeBlock decodes one column block's bytes into a typed vector
// that shares no memory with raw. Every allocation is bounded by
// len(raw): a block that cannot hold rows values is refused first.
func decodeBlock(raw []byte, typ engine.Type, rows int) (any, error) {
	if rows < 0 || !blockHolds(typ, uint64(len(raw)), uint64(rows)) {
		return nil, fmt.Errorf("%w: %s block of %d bytes cannot hold %d values", ErrCorrupt, typ, len(raw), rows)
	}
	switch typ {
	case engine.TypeInt:
		v := make([]int64, rows)
		for i := range v {
			v[i] = int64(binary.BigEndian.Uint64(raw[i*8 : i*8+8]))
		}
		return v, nil
	case engine.TypeFloat:
		v := make([]float64, rows)
		for i := range v {
			v[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[i*8 : i*8+8]))
		}
		return v, nil
	case engine.TypeString:
		// One conversion of the slab; each value is a substring of it.
		// The values therefore keep the whole block alive, which is what
		// a scan wants: its rows live and die together.
		s := string(raw)
		v := make([]string, rows)
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
		v := make([]bool, rows)
		for i := range v {
			v[i] = raw[i] != 0
		}
		return v, nil
	}
	return nil, fmt.Errorf("%w: unknown column type %d", ErrCorrupt, typ)
}
