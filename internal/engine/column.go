package engine

// Columnar execution core. A ColumnBlock stores a relation as typed
// column vectors ([]int64 / []float64 / []string / []bool) plus an
// optional selection vector, the MonetDB/X100-style layout that lets
// operators run tight loops over primitive slices instead of walking
// []Row and re-boxing Value structs. This is the same amortization
// argument MCDB makes one level up — execute the plan once across Monte
// Carlo repetitions — applied across the tuples of a batch.
//
// Blocks convert at the boundary: FromTable decodes a row table into
// vectors and ToTable materializes vectors back into rows; Table keeps
// its public row API. Conversion is strict — every value's dynamic type
// must match its column's schema type, the rule Insert enforces — and a
// table that breaks it is not executable (see decodeTable in query.go).

import (
	"errors"
	"fmt"
)

// ErrMixedColumn reports a column whose values' dynamic types do not
// all match the schema type, which the columnar layout cannot
// represent. Queries over such a table fail with it.
var ErrMixedColumn = errors.New("engine: column holds values not matching its schema type")

// colvec is the typed storage for one column; exactly one field is
// non-nil, selected by the column's schema type.
type colvec struct {
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
}

// ColumnBlock is a relation in columnar form: a schema, per-column
// typed vectors, and an optional selection vector mapping logical row
// order to physical vector positions. Operators that only filter or
// reorder (selections, distinct, sort, limit) share the underlying
// vectors and produce a new selection, deferring materialization until
// ToTable or a materializing operator (join, group-by).
type ColumnBlock struct {
	Name   string
	Schema Schema
	nrows  int // physical rows in each column vector
	// sel maps logical row i to physical row sel[i]; nil means the
	// identity over [0, nrows).
	sel  []int32
	cols []colvec
}

// Len returns the logical row count.
func (b *ColumnBlock) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.nrows
}

// phys maps a logical row index to its physical vector position.
func (b *ColumnBlock) phys(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// ColIndex returns the index of the named column.
func (b *ColumnBlock) ColIndex(name string) (int, error) { return b.Schema.ColIndex(name) }

// valuePhys reconstructs the Value at a physical position of column j.
// It allocates nothing; the Value is a stack copy of the slot.
func (b *ColumnBlock) valuePhys(p, j int) Value {
	switch b.Schema[j].Type {
	case TypeInt:
		return Int(b.cols[j].ints[p])
	case TypeFloat:
		return Float(b.cols[j].floats[p])
	case TypeString:
		return Str(b.cols[j].strs[p])
	case TypeBool:
		return Bool(b.cols[j].bools[p])
	}
	return Value{}
}

// decodeColumn extracts column j of rows into typed storage, strictly:
// every value must carry exactly the schema type.
func decodeColumn(rows []Row, j int, typ Type, colName string) (colvec, error) {
	var cv colvec
	switch typ {
	case TypeInt:
		cv.ints = make([]int64, len(rows))
	case TypeFloat:
		cv.floats = make([]float64, len(rows))
	case TypeString:
		cv.strs = make([]string, len(rows))
	case TypeBool:
		cv.bools = make([]bool, len(rows))
	}
	for i, r := range rows {
		v := r[j]
		if v.typ != typ {
			return colvec{}, fmt.Errorf("%w: column %q row %d is %s, schema says %s",
				ErrMixedColumn, colName, i, v.typ, typ)
		}
		switch typ {
		case TypeInt:
			cv.ints[i] = v.i()
		case TypeFloat:
			cv.floats[i] = v.f()
		case TypeString:
			cv.strs[i] = v.s
		case TypeBool:
			cv.bools[i] = v.b()
		}
	}
	return cv, nil
}

// FromTable decodes a row table into a ColumnBlock. It fails with
// ErrMixedColumn, naming the column, row and dynamic type, when any
// value's type differs from its column's schema type (possible only for
// hand-assembled Rows; Insert rejects or widens such values).
func FromTable(t *Table) (*ColumnBlock, error) {
	b := &ColumnBlock{
		Name:   t.Name,
		Schema: t.Schema.Clone(),
		nrows:  len(t.Rows),
		cols:   make([]colvec, len(t.Schema)),
	}
	for j, c := range t.Schema {
		cv, err := decodeColumn(t.Rows, j, c.Type, c.Name)
		if err != nil {
			return nil, err
		}
		b.cols[j] = cv
	}
	return b, nil
}

func zeroColvec(typ Type, n int) colvec {
	var cv colvec
	switch typ {
	case TypeInt:
		cv.ints = make([]int64, n)
	case TypeFloat:
		cv.floats = make([]float64, n)
	case TypeString:
		cv.strs = make([]string, n)
	case TypeBool:
		cv.bools = make([]bool, n)
	}
	return cv
}

// ToTable materializes the block as a row table. Rows are backed by one
// contiguous slab (disjoint sub-slices), halving allocation count
// versus per-row slices.
func (b *ColumnBlock) ToTable() *Table {
	n, nc := b.Len(), len(b.Schema)
	rows := make([]Row, n)
	slab := make([]Value, n*nc)
	for i := 0; i < n; i++ {
		p := b.phys(i)
		r := slab[i*nc : (i+1)*nc : (i+1)*nc]
		for j := 0; j < nc; j++ {
			r[j] = b.valuePhys(p, j)
		}
		rows[i] = r
	}
	return &Table{Name: b.Name, Schema: b.Schema.Clone(), Rows: rows}
}

// BlockOf assembles a ColumnBlock directly from typed column vectors,
// bypassing row decode entirely. vecs[j] must be a []int64, []float64,
// []string, or []bool matching schema[j].Type, and all vectors must
// share one length. This is the ingestion seam the on-disk column
// store uses: segments decode straight into vectors and never pay the
// []Row boxing FromTable exists to undo.
func BlockOf(name string, schema Schema, vecs []any) (*ColumnBlock, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(vecs) != len(schema) {
		return nil, fmt.Errorf("%w: got %d vectors, schema has %d columns", ErrArity, len(vecs), len(schema))
	}
	b := &ColumnBlock{
		Name:   name,
		Schema: schema.Clone(),
		cols:   make([]colvec, len(schema)),
	}
	n := -1
	for j, v := range vecs {
		var cv colvec
		var ln int
		switch s := v.(type) {
		case []int64:
			cv.ints, ln = s, len(s)
		case []float64:
			cv.floats, ln = s, len(s)
		case []string:
			cv.strs, ln = s, len(s)
		case []bool:
			cv.bools, ln = s, len(s)
		default:
			return nil, fmt.Errorf("%w: unsupported vector type %T", ErrTypeClash, v)
		}
		if !typedSlotMatches(schema[j].Type, cv) {
			return nil, fmt.Errorf("%w: column %q is %s", ErrTypeClash, schema[j].Name, schema[j].Type)
		}
		if n >= 0 && ln != n {
			return nil, fmt.Errorf("%w: column %q has %d rows, column %q has %d",
				ErrArity, schema[j].Name, ln, schema[0].Name, n)
		}
		n = ln
		b.cols[j] = cv
	}
	if n < 0 {
		n = 0
	}
	b.nrows = n
	return b, nil
}

// Dense returns a block whose selection vector is nil: b itself when
// already dense, otherwise a copy with every column gathered through
// the selection. Vec and the segment writer need physically contiguous
// vectors.
func (b *ColumnBlock) Dense() *ColumnBlock {
	if b.sel == nil {
		return b
	}
	nb := &ColumnBlock{
		Name:   b.Name,
		Schema: b.Schema.Clone(),
		nrows:  len(b.sel),
		cols:   make([]colvec, len(b.cols)),
	}
	for j := range b.cols {
		nb.cols[j] = gather(b.cols[j], b.Schema[j].Type, b.sel)
	}
	return nb
}

// Vec returns column j's typed vector ([]int64, []float64, []string,
// or []bool), sliced to the logical row count. It refuses blocks with
// a selection vector — call Dense first — because handing out the raw
// physical vector there would expose rows the selection filtered out.
// The returned slice aliases block storage; callers must not mutate it.
func (b *ColumnBlock) Vec(j int) (any, error) {
	if j < 0 || j >= len(b.Schema) {
		return nil, fmt.Errorf("%w: column %d of %d", ErrNoColumn, j, len(b.Schema))
	}
	if b.sel != nil {
		return nil, fmt.Errorf("%w: Vec on a block with a selection vector (call Dense first)", ErrSchema)
	}
	cv := b.cols[j]
	switch b.Schema[j].Type {
	case TypeInt:
		return cv.ints[:b.nrows], nil
	case TypeFloat:
		return cv.floats[:b.nrows], nil
	case TypeString:
		return cv.strs[:b.nrows], nil
	case TypeBool:
		return cv.bools[:b.nrows], nil
	}
	return nil, fmt.Errorf("%w: column %q has unknown type", ErrTypeClash, b.Schema[j].Name)
}

// WithColumn returns a shallow copy of the block with column j's
// vector replaced. vals must be a []int64, []float64, []string, or
// []bool matching the column's schema type and physical length; the
// other columns are shared. Deferred.Scalar swaps each call's vectors
// into the finished join with it.
func (b *ColumnBlock) WithColumn(j int, vals any) (*ColumnBlock, error) {
	if j < 0 || j >= len(b.Schema) {
		return nil, fmt.Errorf("%w: column %d of %d", ErrNoColumn, j, len(b.Schema))
	}
	var cv colvec
	var n int
	switch s := vals.(type) {
	case []int64:
		cv.ints, n = s, len(s)
	case []float64:
		cv.floats, n = s, len(s)
	case []string:
		cv.strs, n = s, len(s)
	case []bool:
		cv.bools, n = s, len(s)
	default:
		return nil, fmt.Errorf("%w: unsupported vector type %T", ErrTypeClash, vals)
	}
	if !typedSlotMatches(b.Schema[j].Type, cv) {
		return nil, fmt.Errorf("%w: column %q is %s", ErrTypeClash, b.Schema[j].Name, b.Schema[j].Type)
	}
	if n != b.nrows {
		return nil, fmt.Errorf("%w: vector has %d rows, block has %d", ErrArity, n, b.nrows)
	}
	nb := *b
	nb.cols = append([]colvec(nil), b.cols...)
	nb.cols[j] = cv
	return &nb, nil
}

func typedSlotMatches(typ Type, cv colvec) bool {
	switch typ {
	case TypeInt:
		return cv.ints != nil
	case TypeFloat:
		return cv.floats != nil
	case TypeString:
		return cv.strs != nil
	case TypeBool:
		return cv.bools != nil
	}
	return false
}

// Scratch holds reusable operator buffers — key-encoding bytes, key
// codes, and gather/selection index vectors — threaded explicitly
// through a plan so repeated operator calls stop re-allocating. It is
// deliberately a plain struct, not a sync.Pool: pool scheduling is
// nondeterministic noise this repository's bit-identical guarantees do
// not tolerate in benchmarks, and explicit threading keeps ownership
// obvious. A Scratch must not be shared between concurrent operator
// calls.
type Scratch struct {
	key    []byte   // key-encoding buffer
	codes  []uint64 // build-side key codes
	codes2 []uint64 // probe-side key codes
	idx    []int32  // join gather indexes (left)
	idx2   []int32  // join gather indexes (right)
}

// NewScratch returns an empty scratch. The zero value is also usable.
func NewScratch() *Scratch { return &Scratch{} }

// orNew lets operators accept a nil scratch.
func (sc *Scratch) orNew() *Scratch {
	if sc == nil {
		return &Scratch{}
	}
	return sc
}

// keyBuf returns the (reset) key-encoding buffer.
func (sc *Scratch) keyBuf() []byte { return sc.key[:0] }

// codesBuf returns a length-n code buffer, growing the backing array as
// needed. which selects between the two resident buffers.
func (sc *Scratch) codesBuf(n int, which int) []uint64 {
	p := &sc.codes
	if which == 1 {
		p = &sc.codes2
	}
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	return (*p)[:n]
}

// idxBuf returns a reset gather-index buffer.
func (sc *Scratch) idxBuf(which int) []int32 {
	p := &sc.idx
	if which == 1 {
		p = &sc.idx2
	}
	return (*p)[:0]
}

// putIdx stores a grown gather buffer back so the capacity is reused by
// the next operator call.
func (sc *Scratch) putIdx(which int, s []int32) {
	if which == 1 {
		sc.idx2 = s
	} else {
		sc.idx = s
	}
}

// putKey stores a grown key buffer back.
func (sc *Scratch) putKey(s []byte) { sc.key = s }
