// Package gridfield implements the gridfield algebra of Howe and Maier
// (VLDB Journal 2005), surveyed in §2.2 of the paper as database-style
// technology for transforming gridded scientific data. A grid is a
// collection of heterogeneous cells of various dimensions. A gridfield
// binds data to the cells of one dimension. The central
// operator is regrid, which maps a source gridfield's cells onto a
// target grid's cells via a many-to-one assignment function and
// aggregates the bound values; restrict is the selection analogue. The
// algebra's optimization opportunity — certain restrictions commute
// with regrid, so filters can be pushed below the (expensive) regrid —
// is exercised by experiment E13.
package gridfield

import (
	"errors"
	"fmt"
	"sort"
)

// Common errors.
var (
	ErrNoCell = errors.New("gridfield: no such cell")
	ErrBadDim = errors.New("gridfield: invalid cell dimension")
	ErrBadAgg = errors.New("gridfield: unknown aggregation")
)

// Grid is a collection of cells of various dimensions.
type Grid struct {
	// cells maps dimension → sorted cell IDs.
	cells map[int][]int
	dimOf map[int]int
}

// NewGrid returns an empty grid.
func NewGrid() *Grid {
	return &Grid{
		cells: make(map[int][]int),
		dimOf: make(map[int]int),
	}
}

// AddCell inserts a cell. Cell IDs are global across dimensions.
func (g *Grid) AddCell(id, dim int) error {
	if dim < 0 {
		return fmt.Errorf("%w: %d", ErrBadDim, dim)
	}
	if _, ok := g.dimOf[id]; ok {
		return fmt.Errorf("gridfield: duplicate cell id %d", id)
	}
	g.dimOf[id] = dim
	g.cells[dim] = insertSorted(g.cells[dim], id)
	return nil
}

func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// Dim returns a cell's dimension.
func (g *Grid) Dim(id int) (int, error) {
	d, ok := g.dimOf[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoCell, id)
	}
	return d, nil
}

// Field is a gridfield: a grid with data bound to the cells of one
// dimension (type τ_k = float64 in this implementation).
type Field struct {
	Grid *Grid
	Dim  int
	Data map[int]float64 // cell ID → value
	// Touched counts cell visits performed by operators on this field
	// and its derivations. RegridTouched counts only the visits made by
	// the (expensive) regrid operator — the quantity the E13 rewrite
	// experiment compares, since restriction is a cheap scan while each
	// regridded cell pays assignment plus aggregation work.
	Touched       *int
	RegridTouched *int
}

// Bind creates a gridfield by evaluating f on every dimension-k cell of
// the grid.
func Bind(g *Grid, k int, f func(cellID int) float64) (*Field, error) {
	ids := g.cells[k]
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: dimension %d has no cells", ErrBadDim, k)
	}
	touched, regridTouched := 0, 0
	fld := &Field{
		Grid: g, Dim: k, Data: make(map[int]float64, len(ids)),
		Touched: &touched, RegridTouched: &regridTouched,
	}
	for _, id := range ids {
		fld.Data[id] = f(id)
	}
	return fld, nil
}

// CellIDs returns the sorted cell IDs carrying data.
func (f *Field) CellIDs() []int {
	out := make([]int, 0, len(f.Data))
	for id := range f.Data {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Restrict keeps the cells whose bound value satisfies pred — the
// analogue of relational selection.
func (f *Field) Restrict(pred func(cellID int, v float64) bool) *Field {
	out := &Field{
		Grid: f.Grid, Dim: f.Dim, Data: make(map[int]float64),
		Touched: f.Touched, RegridTouched: f.RegridTouched,
	}
	for _, id := range f.CellIDs() {
		*f.Touched++
		v := f.Data[id]
		if pred(id, v) {
			out.Data[id] = v
		}
	}
	return out
}

// Agg is a regrid aggregation function.
type Agg uint8

// Aggregations.
const (
	AggMean Agg = iota
	AggSum
	AggMin
	AggMax
	AggCount
)

// Regrid maps this field's cells onto the target grid's dimension-k
// cells via the many-to-one assignment function and aggregates the
// mapped values — the central gridfield operator. Source cells whose
// assignment returns ok=false are dropped. Target cells receiving no
// source cells are absent from the result.
func (f *Field) Regrid(target *Grid, k int, assign func(srcCellID int) (dstCellID int, ok bool), agg Agg) (*Field, error) {
	sums := make(map[int]float64)
	mins := make(map[int]float64)
	maxs := make(map[int]float64)
	counts := make(map[int]int)
	for _, src := range f.CellIDs() {
		*f.Touched++
		*f.RegridTouched++
		dst, ok := assign(src)
		if !ok {
			continue
		}
		if d, err := target.Dim(dst); err != nil {
			return nil, err
		} else if d != k {
			return nil, fmt.Errorf("%w: assignment maps into dimension %d, want %d", ErrBadDim, d, k)
		}
		v := f.Data[src]
		if counts[dst] == 0 {
			mins[dst], maxs[dst] = v, v
		} else {
			if v < mins[dst] {
				mins[dst] = v
			}
			if v > maxs[dst] {
				maxs[dst] = v
			}
		}
		sums[dst] += v
		counts[dst]++
	}
	out := &Field{
		Grid: target, Dim: k, Data: make(map[int]float64, len(counts)),
		Touched: f.Touched, RegridTouched: f.RegridTouched,
	}
	for dst, n := range counts {
		switch agg {
		case AggMean:
			out.Data[dst] = sums[dst] / float64(n)
		case AggSum:
			out.Data[dst] = sums[dst]
		case AggMin:
			out.Data[dst] = mins[dst]
		case AggMax:
			out.Data[dst] = maxs[dst]
		case AggCount:
			out.Data[dst] = float64(n)
		default:
			return nil, fmt.Errorf("%w: %d", ErrBadAgg, agg)
		}
	}
	return out, nil
}

// UniformGrid1D builds a 1-D grid with n vertices (dim 0, IDs 0..n−1)
// and n−1 segments (dim 1, IDs n..2n−2) — the simplest CORIE-style
// grid.
func UniformGrid1D(n int) (*Grid, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: need ≥ 2 vertices", ErrBadDim)
	}
	g := NewGrid()
	for i := 0; i < n; i++ {
		if err := g.AddCell(i, 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n-1; i++ {
		seg := n + i
		if err := g.AddCell(seg, 1); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// IrregularGrid2D builds a 2-D grid of nx×ny vertices with quad cells,
// dropping each quad independently with probability holeFrac decided by
// the pick function — an irregular grid of the kind the gridfield
// algebra targets. pick(i) must be deterministic for reproducibility.
//
// Vertex (i, j) has ID j·nx+i (dim 0); quad (i, j) has
// ID nx·ny + j·(nx−1)+i (dim 2).
func IrregularGrid2D(nx, ny int, dropQuad func(quadIndex int) bool) (*Grid, error) {
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("%w: need ≥ 2×2 vertices", ErrBadDim)
	}
	g := NewGrid()
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if err := g.AddCell(j*nx+i, 0); err != nil {
				return nil, err
			}
		}
	}
	base := nx * ny
	for j := 0; j < ny-1; j++ {
		for i := 0; i < nx-1; i++ {
			qi := j*(nx-1) + i
			if dropQuad != nil && dropQuad(qi) {
				continue
			}
			id := base + qi
			if err := g.AddCell(id, 2); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
