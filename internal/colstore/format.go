// Package colstore is the on-disk columnar storage backend: tables
// partition into fixed-row-count segment files, each holding one typed
// block per column plus a footer of per-column zone maps (row count,
// min/max, NaN presence) and CRC-32C checksums. A Store opens a segment
// directory and implements engine.Storage, streaming segments back as
// engine.ColumnBlocks with zone-map pruning against the scan's
// predicate — so the whole operator suite (filters, joins, group-by,
// the planner, SQL) runs unchanged over on-disk data, and the engine's
// golden suite can pin its results byte-identical to the in-memory
// path.
//
// Segment layout, version 2 (all integers big-endian or uvarint as
// noted):
//
//	"MDCS" <version:1>                      header
//	column blocks, concatenated:            per column, rows values
//	    int    8B two's-complement BE each
//	    float  8B IEEE-754 bits BE each
//	    string uvarint length + bytes each
//	    bool   1B each
//	footer:
//	    uvarint rows, uvarint len(name)+name, uvarint ncols
//	    per column:
//	        uvarint len(colname)+colname, 1B type
//	        uvarint offset, uvarint length      (block bounds)
//	        4B CRC-32C of the block bytes
//	        1B zone flags (1=HasRange, 2=HasNaN)
//	        uvarint nulls (always 0; reserved)
//	        typed min, typed max                (when HasRange)
//	    4B CRC-32C of the footer bytes above
//	"MDCF" <footerLen:8BE>                  trailer
//
// The trailer is fixed-size so a reader can locate the footer from the
// file end; per-block checksums verify lazily at decode, so opening a
// store reads only footers.
//
// A block is one slab end to end: the writer encodes a whole column
// vector into a reused buffer, checksums it once and writes the segment
// with one call; the reader fetches the block with one positioned read,
// verifies it, and only then decodes — a string block as substrings of
// one conversion of the slab, not one allocation per row. The checksum
// is CRC-32C (Castagnoli) because amd64 and arm64 compute it in
// hardware through hash/crc32, about 20 bytes per nanosecond where the
// byte-serial FNV-1a of version 1 did one; it is still computed for
// every block and the footer, and still checked before a single value
// is decoded. Version 1 files are refused, with an error naming both
// versions, rather than migrated: a store is a scratch artefact of the
// process that wrote it (none is committed, none outlives its run), so
// a second checksum kept only to read files nobody has would be a
// second read path with no input.
//
// The footer is input from outside the program even when its checksum
// holds. parseFooter therefore bounds every declared length against
// the bytes actually present — the blocks tile [header, footer) in
// column order with no gap or overlap, a fixed-width block is exactly
// rows × width, a string block at least one byte per row — before
// anything is allocated from it, so decoding a whole segment allocates
// a small multiple of its file size whatever the footer claims.
package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"modeldata/internal/engine"
)

const (
	segMagic     = "MDCS"
	segTrailer   = "MDCF"
	segVersion   = 2
	headerBytes  = len(segMagic) + 1
	sumBytes     = 4     // one CRC-32C
	trailerBytes = 4 + 8 // magic + footer length

	// DefaultSegmentRows is the default rows-per-segment partition
	// size: 64k rows keeps segments near a few MB for typical schemas
	// while giving zone maps enough granularity to prune selectively.
	DefaultSegmentRows = 1 << 16

	zmFlagRange = 1
	zmFlagNaN   = 2
)

// ErrCorrupt reports a segment file whose structure or checksums do
// not verify.
var ErrCorrupt = fmt.Errorf("colstore: corrupt segment")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC-32C of b, the integrity check of every block and
// footer.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// colMeta is one column's footer entry.
type colMeta struct {
	name string
	typ  engine.Type
	off  int64
	size int64
	sum  uint32
	zone engine.ZoneMap
}

// segMeta is one segment's parsed footer.
type segMeta struct {
	path string
	rows int64
	name string
	cols []colMeta
}

// appendTypedValue appends a zone-map bound in the column's typed
// encoding. Unlike the engine's key encoding — which collapses
// float-representable ints into float bit space — this keeps exact
// int64 bounds, which pruning comparisons need.
func appendTypedValue(dst []byte, typ engine.Type, v engine.Value) []byte {
	switch typ {
	case engine.TypeInt:
		return binary.BigEndian.AppendUint64(dst, uint64(v.AsInt()))
	case engine.TypeFloat:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case engine.TypeString:
		s := v.AsString()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case engine.TypeBool:
		if v.AsBool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	return dst
}

// byteReader reads from an in-memory footer slice, tracking position.
type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint", ErrCorrupt)
	}
	r.pos += n
	return v, nil
}

// bytes returns the next n bytes. n is a length read from the input, so
// it is compared unsigned against what remains, never converted first.
func (r *byteReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.pos) {
		return nil, fmt.Errorf("%w: truncated field", ErrCorrupt)
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

func (r *byteReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *byteReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *byteReader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// typedValue reads one zone-map bound written by appendTypedValue.
func (r *byteReader) typedValue(typ engine.Type) (engine.Value, error) {
	switch typ {
	case engine.TypeInt:
		u, err := r.u64()
		if err != nil {
			return engine.Value{}, err
		}
		return engine.Int(int64(u)), nil
	case engine.TypeFloat:
		u, err := r.u64()
		if err != nil {
			return engine.Value{}, err
		}
		return engine.Float(math.Float64frombits(u)), nil
	case engine.TypeString:
		n, err := r.uvarint()
		if err != nil {
			return engine.Value{}, err
		}
		b, err := r.bytes(n)
		if err != nil {
			return engine.Value{}, err
		}
		return engine.Str(string(b)), nil
	case engine.TypeBool:
		b, err := r.byte()
		if err != nil {
			return engine.Value{}, err
		}
		return engine.Bool(b != 0), nil
	}
	return engine.Value{}, fmt.Errorf("%w: unknown bound type", ErrCorrupt)
}

// parseFooter decodes the footer bytes (checksum already verified) of a
// segment whose column blocks must tile [headerBytes, dataEnd). Every
// length the footer declares is checked against that range before use.
func parseFooter(path string, footer []byte, dataEnd int64) (*segMeta, error) {
	r := &byteReader{b: footer}
	rows, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nameLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	name, err := r.bytes(nameLen)
	if err != nil {
		return nil, err
	}
	ncols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ncols == 0 || ncols > 1<<16 {
		return nil, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, ncols)
	}
	sm := &segMeta{path: path, rows: int64(rows), name: string(name)}
	// bounded by the footer's verified column count
	sm.cols = make([]colMeta, 0, ncols)
	next := uint64(headerBytes) // where the next block must start
	for i := uint64(0); i < ncols; i++ {
		cnLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		cn, err := r.bytes(cnLen)
		if err != nil {
			return nil, err
		}
		tb, err := r.byte()
		if err != nil {
			return nil, err
		}
		typ := engine.Type(tb)
		if typ > engine.TypeBool {
			return nil, fmt.Errorf("%w: unknown column type %d", ErrCorrupt, tb)
		}
		off, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		size, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if off != next || size > uint64(dataEnd)-off {
			return nil, fmt.Errorf("%w: column %q block [%d,+%d) does not follow the previous one at %d inside [%d,%d)",
				ErrCorrupt, cn, off, size, next, headerBytes, dataEnd)
		}
		next = off + size
		if !blockHolds(typ, size, rows) {
			return nil, fmt.Errorf("%w: column %q block of %d bytes cannot hold %d %s values",
				ErrCorrupt, cn, size, rows, typ)
		}
		sum, err := r.u32()
		if err != nil {
			return nil, err
		}
		flags, err := r.byte()
		if err != nil {
			return nil, err
		}
		if _, err := r.uvarint(); err != nil { // nulls, reserved
			return nil, err
		}
		cm := colMeta{
			name: string(cn), typ: typ,
			off: int64(off), size: int64(size), sum: sum,
			zone: engine.ZoneMap{
				Rows:     int64(rows),
				HasRange: flags&zmFlagRange != 0,
				HasNaN:   flags&zmFlagNaN != 0,
			},
		}
		if cm.zone.HasRange {
			if cm.zone.Min, err = r.typedValue(typ); err != nil {
				return nil, err
			}
			if cm.zone.Max, err = r.typedValue(typ); err != nil {
				return nil, err
			}
		}
		sm.cols = append(sm.cols, cm)
	}
	if r.pos != len(footer) {
		return nil, fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, len(footer)-r.pos)
	}
	if next != uint64(dataEnd) {
		return nil, fmt.Errorf("%w: %d data bytes belong to no column", ErrCorrupt, uint64(dataEnd)-next)
	}
	return sm, nil
}

// blockHolds reports whether a block of size bytes can be rows values
// of typ: exactly rows × width for a fixed-width type, at least one
// byte per row for strings. Both numbers come from the input, so
// nothing is multiplied.
func blockHolds(typ engine.Type, size, rows uint64) bool {
	switch typ {
	case engine.TypeInt, engine.TypeFloat:
		return size%8 == 0 && size/8 == rows
	case engine.TypeBool:
		return size == rows
	}
	return rows <= size
}

// schema reconstructs the segment's engine schema.
func (sm *segMeta) schema() engine.Schema {
	s := make(engine.Schema, len(sm.cols))
	for i, c := range sm.cols {
		s[i] = engine.Column{Name: c.name, Type: c.typ}
	}
	return s
}
