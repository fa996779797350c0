package colstore

// Writer: partitioning a relation into on-disk segments. Rows buffer
// in column vectors until SegmentRows accumulate, then flush as one
// segment file; Close flushes the remainder. A relation with zero rows
// still writes one empty segment so the schema round-trips. The
// vectors and the encode buffer are allocated once per Writer and
// reused by every segment it writes.

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"modeldata/internal/engine"
)

// Writer partitions blocks of one relation into segment files under a
// directory. Not safe for concurrent use.
type Writer struct {
	dir    string
	name   string
	schema engine.Schema
	rows   int // rows per segment

	// buf holds the pending segment's column vectors, schema order.
	// bounded by rows (one segment's worth; flushSegment truncates it)
	buf      []segCol
	buffered int
	// enc is the segment encode buffer.
	// bounded by one encoded segment (rows values per column)
	enc     []byte
	nextSeg int
	wrote   bool
	closed  bool
}

// segCol is one column's pending values; the schema type selects the
// field in use.
type segCol struct {
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
}

// Options configures a Writer. Open takes one and reads nothing from
// it: a Store always prunes by zone map (the benchmark reports how
// much as colstore.prune_ratio on batch_ooc).
type Options struct {
	// SegmentRows is the partition size; 0 means DefaultSegmentRows.
	SegmentRows int
}

// NewWriter creates a segment writer for a relation with the given
// name and schema, writing files named seg-NNNNNN.mdcs under dir
// (created if needed).
func NewWriter(dir, name string, schema engine.Schema, opt Options) (*Writer, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("colstore: relation %q needs at least one column", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rows := opt.SegmentRows
	if rows <= 0 {
		rows = DefaultSegmentRows
	}
	w := &Writer{dir: dir, name: name, schema: schema.Clone(), rows: rows}
	// bounded by one segment's row budget (w.rows)
	w.buf = make([]segCol, len(w.schema))
	for j, c := range w.schema {
		switch c.Type {
		case engine.TypeInt:
			w.buf[j].ints = make([]int64, 0, rows)
		case engine.TypeFloat:
			w.buf[j].floats = make([]float64, 0, rows)
		case engine.TypeString:
			w.buf[j].strs = make([]string, 0, rows)
		case engine.TypeBool:
			w.buf[j].bools = make([]bool, 0, rows)
		}
	}
	return w, nil
}

// AppendBlock buffers a block's rows, flushing full segments as they
// fill. The block's schema must equal the writer's.
func (w *Writer) AppendBlock(b *engine.ColumnBlock) error {
	if w.closed {
		return fmt.Errorf("colstore: writer for %q is closed", w.name)
	}
	if !b.Schema.Equal(w.schema) {
		return fmt.Errorf("%w: block schema does not match writer", engine.ErrSchema)
	}
	d := b.Dense()
	n := d.Len()
	for lo := 0; lo < n; {
		take := w.rows - w.buffered
		if take > n-lo {
			take = n - lo
		}
		for j := range w.schema {
			vec, err := d.Vec(j)
			if err != nil {
				return err
			}
			c := &w.buf[j]
			switch v := vec.(type) {
			case []int64:
				c.ints = append(c.ints, v[lo:lo+take]...)
			case []float64:
				c.floats = append(c.floats, v[lo:lo+take]...)
			case []string:
				c.strs = append(c.strs, v[lo:lo+take]...)
			case []bool:
				c.bools = append(c.bools, v[lo:lo+take]...)
			}
		}
		w.buffered += take
		lo += take
		if w.buffered == w.rows {
			if err := w.flushSegment(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AppendTable buffers a table's rows (decoded strictly — a mixed
// column is an error, since segments are typed).
func (w *Writer) AppendTable(t *engine.Table) error {
	b, err := engine.FromTable(t)
	if err != nil {
		return err
	}
	b.Name = w.name
	nb, err := reschema(b, w.schema)
	if err != nil {
		return err
	}
	return w.AppendBlock(nb)
}

// reschema renames b's columns to match the writer schema positionally
// when only names differ; types must match exactly.
func reschema(b *engine.ColumnBlock, schema engine.Schema) (*engine.ColumnBlock, error) {
	if b.Schema.Equal(schema) {
		return b, nil
	}
	if len(b.Schema) != len(schema) {
		return nil, fmt.Errorf("%w: %d columns, writer has %d", engine.ErrSchema, len(b.Schema), len(schema))
	}
	for j := range schema {
		if b.Schema[j].Type != schema[j].Type {
			return nil, fmt.Errorf("%w: column %q is %s, writer wants %s",
				engine.ErrSchema, b.Schema[j].Name, b.Schema[j].Type, schema[j].Type)
		}
	}
	d := b.Dense()
	vecs := make([]any, len(schema))
	for j := range schema {
		v, err := d.Vec(j)
		if err != nil {
			return nil, err
		}
		vecs[j] = v
	}
	return engine.BlockOf(b.Name, schema, vecs)
}

// Close flushes any buffered rows. If nothing was ever written, one
// empty segment is emitted so Open can recover the schema.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.buffered > 0 || !w.wrote {
		return w.flushSegment()
	}
	return nil
}

// flushSegment writes the buffered vectors as segment file nextSeg:
// the whole segment is encoded into w.enc and written with one call.
func (w *Writer) flushSegment() error {
	w.enc = encodeSegment(w.enc[:0], w.name, w.schema, w.buf)
	path := filepath.Join(w.dir, fmt.Sprintf("seg-%06d.mdcs", w.nextSeg))
	if err := os.WriteFile(path, w.enc, 0o666); err != nil {
		return err
	}
	w.nextSeg++
	w.wrote = true
	for j := range w.buf {
		c := &w.buf[j]
		// Dropping the string references lets the source rows go.
		clear(c.strs)
		c.ints, c.floats, c.strs, c.bools = c.ints[:0], c.floats[:0], c.strs[:0], c.bools[:0]
	}
	w.buffered = 0
	return nil
}

// encodeSegment appends one whole segment — header, column blocks,
// footer, trailer — to dst. Each block is encoded as one run of dst and
// checksummed once; its zone map falls out of the same pass.
func encodeSegment(dst []byte, name string, schema engine.Schema, cols []segCol) []byte {
	dst = slices.Grow(dst, segmentBound(schema, cols))
	dst = append(dst, segMagic...)
	dst = append(dst, segVersion)

	rows := 0
	metas := make([]colMeta, len(schema))
	for j, c := range schema {
		start := len(dst)
		zone := engine.ZoneMap{}
		switch c.Type {
		case engine.TypeInt:
			v := cols[j].ints
			rows = len(v)
			var mn, mx int64
			for i, x := range v {
				dst = binary.BigEndian.AppendUint64(dst, uint64(x))
				if i == 0 || x < mn {
					mn = x
				}
				if i == 0 || x > mx {
					mx = x
				}
			}
			if len(v) > 0 {
				zone.HasRange = true
				zone.Min, zone.Max = engine.Int(mn), engine.Int(mx)
			}
		case engine.TypeFloat:
			v := cols[j].floats
			rows = len(v)
			var mn, mx float64
			seen := false
			for _, x := range v {
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
				if math.IsNaN(x) {
					zone.HasNaN = true
					continue
				}
				if !seen || x < mn {
					mn = x
				}
				if !seen || x > mx {
					mx = x
				}
				seen = true
			}
			if seen {
				zone.HasRange = true
				zone.Min, zone.Max = engine.Float(mn), engine.Float(mx)
			}
		case engine.TypeString:
			v := cols[j].strs
			rows = len(v)
			var mn, mx string
			for i, x := range v {
				dst = binary.AppendUvarint(dst, uint64(len(x)))
				dst = append(dst, x...)
				if i == 0 || x < mn {
					mn = x
				}
				if i == 0 || x > mx {
					mx = x
				}
			}
			if len(v) > 0 {
				zone.HasRange = true
				zone.Min, zone.Max = engine.Str(mn), engine.Str(mx)
			}
		case engine.TypeBool:
			v := cols[j].bools
			rows = len(v)
			mn, mx := true, false
			for _, x := range v {
				if x {
					dst = append(dst, 1)
					mx = true
				} else {
					dst = append(dst, 0)
					mn = false
				}
			}
			if len(v) > 0 {
				zone.HasRange = true
				zone.Min, zone.Max = engine.Bool(mn), engine.Bool(mx)
			}
		}
		metas[j] = colMeta{
			name: c.Name, typ: c.Type,
			off: int64(start), size: int64(len(dst) - start), sum: checksum(dst[start:]),
			zone: zone,
		}
	}

	footerStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(len(metas)))
	for _, m := range metas {
		dst = binary.AppendUvarint(dst, uint64(len(m.name)))
		dst = append(dst, m.name...)
		dst = append(dst, byte(m.typ))
		dst = binary.AppendUvarint(dst, uint64(m.off))
		dst = binary.AppendUvarint(dst, uint64(m.size))
		dst = binary.BigEndian.AppendUint32(dst, m.sum)
		var flags byte
		if m.zone.HasRange {
			flags |= zmFlagRange
		}
		if m.zone.HasNaN {
			flags |= zmFlagNaN
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, 0) // nulls, reserved
		if m.zone.HasRange {
			dst = appendTypedValue(dst, m.typ, m.zone.Min)
			dst = appendTypedValue(dst, m.typ, m.zone.Max)
		}
	}
	footerLen := len(dst) - footerStart
	dst = binary.BigEndian.AppendUint32(dst, checksum(dst[footerStart:]))
	dst = append(dst, segTrailer...)
	return binary.BigEndian.AppendUint64(dst, uint64(footerLen))
}

// segmentBound is what encodeSegment's column blocks take for cols,
// plus room for the header, trailer and a footer of short names and
// zone values; a longer footer grows the buffer once more.
func segmentBound(schema engine.Schema, cols []segCol) int {
	n := 64 * (len(schema) + 1)
	for j, c := range schema {
		switch c.Type {
		case engine.TypeInt:
			n += 8 * len(cols[j].ints)
		case engine.TypeFloat:
			n += 8 * len(cols[j].floats)
		case engine.TypeString:
			for _, x := range cols[j].strs {
				n += uvarintLen(uint64(len(x))) + len(x)
			}
		case engine.TypeBool:
			n += len(cols[j].bools)
		}
	}
	return n
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// WriteTable is the one-call form: partition t into segments under dir.
func WriteTable(dir string, t *engine.Table, opt Options) error {
	w, err := NewWriter(dir, t.Name, t.Schema, opt)
	if err != nil {
		return err
	}
	if err := w.AppendTable(t); err != nil {
		return err
	}
	return w.Close()
}
