package gridfield

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"modeldata/internal/rng"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid()
	if err := g.AddCell(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddCell(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddCell(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddCell(0, 0); err == nil {
		t.Fatal("duplicate cell accepted")
	}
	if err := g.AddCell(3, -1); !errors.Is(err, ErrBadDim) {
		t.Fatalf("got %v", err)
	}
	if d, _ := g.Dim(2); d != 1 {
		t.Fatal("Dim wrong")
	}
	if _, err := g.Dim(42); !errors.Is(err, ErrNoCell) {
		t.Fatalf("got %v", err)
	}
}

func TestUniformGrid1D(t *testing.T) {
	g, err := UniformGrid1D(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.cells[0]) != 5 || len(g.cells[1]) != 4 {
		t.Fatalf("cells: %d vertices, %d segments", len(g.cells[0]), len(g.cells[1]))
	}
	if _, err := UniformGrid1D(1); !errors.Is(err, ErrBadDim) {
		t.Fatalf("got %v", err)
	}
}

func TestIrregularGrid2D(t *testing.T) {
	g, err := IrregularGrid2D(4, 3, func(q int) bool { return q == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(g.cells[0]) != 12 {
		t.Fatalf("vertices = %d", len(g.cells[0]))
	}
	// 3×2 = 6 quads minus the dropped one.
	if len(g.cells[2]) != 5 {
		t.Fatalf("quads = %d", len(g.cells[2]))
	}
	if _, err := IrregularGrid2D(1, 5, nil); !errors.Is(err, ErrBadDim) {
		t.Fatalf("got %v", err)
	}
}

func TestBindAndRestrict(t *testing.T) {
	g, err := UniformGrid1D(10)
	if err != nil {
		t.Fatal(err)
	}
	fld, err := Bind(g, 0, func(id int) float64 { return float64(id) })
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fld.Data[7]; !ok || v != 7 {
		t.Fatal("bind wrong")
	}
	big := fld.Restrict(func(id int, v float64) bool { return v >= 5 })
	if len(big.Data) != 5 {
		t.Fatalf("restricted cells = %d", len(big.Data))
	}
	if _, err := Bind(g, 7, nil); !errors.Is(err, ErrBadDim) {
		t.Fatalf("got %v", err)
	}
}

func TestRegridAggregations(t *testing.T) {
	src, err := UniformGrid1D(9) // vertices 0..8
	if err != nil {
		t.Fatal(err)
	}
	dst, err := UniformGrid1D(3) // vertices 0..2
	if err != nil {
		t.Fatal(err)
	}
	fld, err := Bind(src, 0, func(id int) float64 { return float64(id) })
	if err != nil {
		t.Fatal(err)
	}
	assign := func(srcID int) (int, bool) { return srcID / 3, true }
	cases := map[Agg][3]float64{
		AggMean:  {1, 4, 7},
		AggSum:   {3, 12, 21},
		AggMin:   {0, 3, 6},
		AggMax:   {2, 5, 8},
		AggCount: {3, 3, 3},
	}
	for agg, want := range cases {
		out, err := fld.Regrid(dst, 0, assign, agg)
		if err != nil {
			t.Fatalf("agg %d: %v", agg, err)
		}
		for dstID := 0; dstID < 3; dstID++ {
			if v := out.Data[dstID]; v != want[dstID] {
				t.Errorf("agg %d cell %d = %g, want %g", agg, dstID, v, want[dstID])
			}
		}
	}
}

func TestRegridDropsUnassigned(t *testing.T) {
	src, _ := UniformGrid1D(6)
	dst, _ := UniformGrid1D(2)
	fld, _ := Bind(src, 0, func(id int) float64 { return 1 })
	out, err := fld.Regrid(dst, 0, func(srcID int) (int, bool) {
		if srcID < 3 {
			return 0, true
		}
		return 0, false
	}, AggCount)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 3 {
		t.Fatalf("count = %g", out.Data[0])
	}
	if _, ok := out.Data[1]; ok {
		t.Fatal("empty target cell materialized")
	}
}

func TestRegridDimensionCheck(t *testing.T) {
	src, _ := UniformGrid1D(4)
	dst, _ := UniformGrid1D(4)
	fld, _ := Bind(src, 0, func(id int) float64 { return 0 })
	// Segment IDs in dst are 4..6 (dim 1), not dim 0.
	_, err := fld.Regrid(dst, 0, func(srcID int) (int, bool) { return 4, true }, AggMean)
	if !errors.Is(err, ErrBadDim) {
		t.Fatalf("got %v", err)
	}
	_, err = fld.Regrid(dst, 0, func(srcID int) (int, bool) { return 99, true }, AggMean)
	if !errors.Is(err, ErrNoCell) {
		t.Fatalf("got %v", err)
	}
}

// TestRestrictRegridCommute verifies the optimization law of §2.2: a
// restriction on the regrid output commutes with regridding the
// restricted input, when the restriction predicate depends only on
// which target cell a source cell maps to.
func TestRestrictRegridCommute(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		src, err := IrregularGrid2D(9, 9, func(q int) bool { return r.Bool(0.2) })
		if err != nil {
			return false
		}
		dst, err := UniformGrid1D(9)
		if err != nil {
			return false
		}
		fld, err := Bind(src, 0, func(id int) float64 { return float64(id % 17) })
		if err != nil {
			return false
		}
		// Source vertex (i, j) maps to band j (a dim-0 cell of dst).
		assign := func(srcID int) (int, bool) { return srcID / 9, true }
		keepBand := func(band int) bool { return band%2 == 0 }

		// Plan A: regrid everything, then restrict the output.
		full, err := fld.Regrid(dst, 0, assign, AggMean)
		if err != nil {
			return false
		}
		planA := full.Restrict(func(id int, v float64) bool { return keepBand(id) })

		// Plan B: restrict the source to cells mapping into kept
		// bands, then regrid (fewer cells touched).
		restricted := fld.Restrict(func(id int, v float64) bool {
			band, _ := assign(id)
			return keepBand(band)
		})
		planB, err := restricted.Regrid(dst, 0, assign, AggMean)
		if err != nil {
			return false
		}
		if len(planA.Data) != len(planB.Data) {
			return false
		}
		for id, v := range planA.Data {
			if w, ok := planB.Data[id]; !ok || math.Abs(v-w) > 1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPushdownTouchesFewerCells verifies the efficiency half of the
// rewrite: restriction-first regrids fewer cells.
func TestPushdownTouchesFewerCells(t *testing.T) {
	src, err := UniformGrid1D(1000)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := UniformGrid1D(10)
	if err != nil {
		t.Fatal(err)
	}
	assign := func(srcID int) (int, bool) { return srcID / 100, true }
	keep := func(band int) bool { return band == 0 }

	mk := func() *Field {
		fld, err := Bind(src, 0, func(id int) float64 { return float64(id) })
		if err != nil {
			t.Fatal(err)
		}
		return fld
	}

	// Plan A: regrid-then-restrict.
	a := mk()
	full, err := a.Regrid(dst, 0, assign, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	full.Restrict(func(id int, v float64) bool { return keep(id) })
	regridA := *a.RegridTouched

	// Plan B: restrict-then-regrid.
	b := mk()
	restricted := b.Restrict(func(id int, v float64) bool {
		band, _ := assign(id)
		return keep(band)
	})
	if _, err := restricted.Regrid(dst, 0, assign, AggMean); err != nil {
		t.Fatal(err)
	}
	regridB := *b.RegridTouched

	// Plan B regrids only the surviving 10% of the cells; the expensive
	// operator does an order of magnitude less work.
	if regridB*5 >= regridA {
		t.Fatalf("pushdown regridded %d cells vs %d — no saving", regridB, regridA)
	}
}
