package colstore

// Writer: partitioning a relation into on-disk segments. Rows buffer
// in column vectors until SegmentRows accumulate, then flush as one
// segment file; Close flushes the remainder. A relation with zero rows
// still writes one empty segment so the schema round-trips.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

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
	// bounded by rows (one segment's worth; flushSegment resets it)
	buf      []any
	buffered int
	nextSeg  int
	wrote    bool
	closed   bool
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
	w.resetBuf()
	return w, nil
}

func (w *Writer) resetBuf() {
	// bounded by one segment's row budget (w.rows)
	w.buf = make([]any, len(w.schema))
	for j, c := range w.schema {
		switch c.Type {
		case engine.TypeInt:
			w.buf[j] = make([]int64, 0, w.rows)
		case engine.TypeFloat:
			w.buf[j] = make([]float64, 0, w.rows)
		case engine.TypeString:
			w.buf[j] = make([]string, 0, w.rows)
		case engine.TypeBool:
			w.buf[j] = make([]bool, 0, w.rows)
		}
	}
	w.buffered = 0
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
			switch v := vec.(type) {
			case []int64:
				w.buf[j] = append(w.buf[j].([]int64), v[lo:lo+take]...)
			case []float64:
				w.buf[j] = append(w.buf[j].([]float64), v[lo:lo+take]...)
			case []string:
				w.buf[j] = append(w.buf[j].([]string), v[lo:lo+take]...)
			case []bool:
				w.buf[j] = append(w.buf[j].([]bool), v[lo:lo+take]...)
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

// flushSegment writes the buffered vectors as segment file nextSeg.
func (w *Writer) flushSegment() error {
	path := filepath.Join(w.dir, fmt.Sprintf("seg-%06d.mdcs", w.nextSeg))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSegment(f, w.name, w.schema, w.buf, w.buffered); err != nil {
		f.Close() //lint:allow errdrop error-path cleanup; the segment write error is the one to surface
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	w.nextSeg++
	w.wrote = true
	w.resetBuf()
	return nil
}

// countingWriter tracks bytes and a running fnv64a over what passes
// through, so block offsets and checksums fall out of the write path.
type countingWriter struct {
	w   *bufio.Writer
	off int64
	sum uint64
}

func (cw *countingWriter) write(b []byte) error {
	if _, err := cw.w.Write(b); err != nil {
		return err
	}
	cw.off += int64(len(b))
	cw.sum = fnv64a(cw.sum, b)
	return nil
}

// writeSegment serializes one segment: header, column blocks, footer.
func writeSegment(f *os.File, name string, schema engine.Schema, vecs []any, rows int) error {
	cw := &countingWriter{w: bufio.NewWriterSize(f, 1<<16)}
	if err := cw.write([]byte(segMagic)); err != nil {
		return err
	}
	if err := cw.write([]byte{segVersion}); err != nil {
		return err
	}

	metas := make([]colMeta, len(schema))
	var scratch [8]byte
	for j, c := range schema {
		start := cw.off
		cw.sum = fnvOffset
		zone := engine.ZoneMap{Rows: int64(rows)}
		switch c.Type {
		case engine.TypeInt:
			v := vecs[j].([]int64)[:rows]
			var mn, mx int64
			for i, x := range v {
				binary.BigEndian.PutUint64(scratch[:], uint64(x))
				if err := cw.write(scratch[:]); err != nil {
					return err
				}
				if i == 0 || x < mn {
					mn = x
				}
				if i == 0 || x > mx {
					mx = x
				}
			}
			if rows > 0 {
				zone.HasRange = true
				zone.Min, zone.Max = engine.Int(mn), engine.Int(mx)
			}
		case engine.TypeFloat:
			v := vecs[j].([]float64)[:rows]
			var mn, mx float64
			seen := false
			for _, x := range v {
				binary.BigEndian.PutUint64(scratch[:], math.Float64bits(x))
				if err := cw.write(scratch[:]); err != nil {
					return err
				}
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
			v := vecs[j].([]string)[:rows]
			var mn, mx string
			for i, x := range v {
				var lb [binary.MaxVarintLen64]byte
				n := binary.PutUvarint(lb[:], uint64(len(x)))
				if err := cw.write(lb[:n]); err != nil {
					return err
				}
				if err := cw.write([]byte(x)); err != nil {
					return err
				}
				if i == 0 || x < mn {
					mn = x
				}
				if i == 0 || x > mx {
					mx = x
				}
			}
			if rows > 0 {
				zone.HasRange = true
				zone.Min, zone.Max = engine.Str(mn), engine.Str(mx)
			}
		case engine.TypeBool:
			v := vecs[j].([]bool)[:rows]
			mn, mx := true, false
			for _, x := range v {
				b := byte(0)
				if x {
					b = 1
				}
				if err := cw.write([]byte{b}); err != nil {
					return err
				}
				if !x {
					mn = false
				}
				if x {
					mx = true
				}
			}
			if rows > 0 {
				zone.HasRange = true
				zone.Min, zone.Max = engine.Bool(mn), engine.Bool(mx)
			}
		}
		metas[j] = colMeta{
			name: c.Name, typ: c.Type,
			off: start, size: cw.off - start, sum: cw.sum,
			zone: zone,
		}
	}

	// Footer.
	footer := appendUvarint(nil, uint64(rows))
	footer = appendUvarint(footer, uint64(len(name)))
	footer = append(footer, name...)
	footer = appendUvarint(footer, uint64(len(metas)))
	for _, m := range metas {
		footer = appendUvarint(footer, uint64(len(m.name)))
		footer = append(footer, m.name...)
		footer = append(footer, byte(m.typ))
		footer = appendUvarint(footer, uint64(m.off))
		footer = appendUvarint(footer, uint64(m.size))
		footer = appendU64(footer, m.sum)
		var flags byte
		if m.zone.HasRange {
			flags |= zmFlagRange
		}
		if m.zone.HasNaN {
			flags |= zmFlagNaN
		}
		footer = append(footer, flags)
		footer = appendUvarint(footer, 0) // nulls, reserved
		if m.zone.HasRange {
			footer = appendTypedValue(footer, m.typ, m.zone.Min)
			footer = appendTypedValue(footer, m.typ, m.zone.Max)
		}
	}
	if err := cw.write(footer); err != nil {
		return err
	}
	if err := cw.write(appendU64(nil, fnv64a(fnvOffset, footer))); err != nil {
		return err
	}
	if err := cw.write([]byte(segTrailer)); err != nil {
		return err
	}
	if err := cw.write(appendU64(nil, uint64(len(footer)))); err != nil {
		return err
	}
	return cw.w.Flush()
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
