package pdesmas

import (
	"errors"
	"testing"
	"testing/quick"

	"modeldata/internal/rng"
)

func TestHistoryWriteAndRead(t *testing.T) {
	var h history
	h.write(1, 10)
	h.write(3, 30)
	h.write(2, 20) // out-of-order insert
	if v, ok := h.at(2.5); !ok || v != 20 {
		t.Fatalf("at(2.5) = %g ok=%v", v, ok)
	}
	if v, ok := h.at(3); !ok || v != 30 {
		t.Fatalf("at(3) = %g ok=%v", v, ok)
	}
	if v, ok := h.at(9); !ok || v != 30 {
		t.Fatalf("at(9) = %g ok=%v", v, ok)
	}
	if _, ok := h.at(0.5); ok {
		t.Fatal("read before first write should fail")
	}
	if v, ok := h.latest(); !ok || v != 30 {
		t.Fatalf("latest = %g", v)
	}
	var empty history
	if _, ok := empty.latest(); ok {
		t.Fatal("empty latest should fail")
	}
}

func TestHistoryOrderInvariantProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		var h history
		for i := 0; i < 30; i++ {
			h.write(r.Float64()*10, float64(i))
		}
		for i := 1; i < len(h.values); i++ {
			if h.values[i-1].T > h.values[i].T {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewTreeShapes(t *testing.T) {
	for _, leaves := range []int{1, 2, 3, 4, 7, 8} {
		tr, err := NewTree(leaves)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.leaves) != leaves {
			t.Fatalf("leaves = %d, want %d", len(tr.leaves), leaves)
		}
		// Every leaf must reach the same root.
		var root *clp
		for _, l := range tr.leaves {
			c := l
			for c.parent != nil {
				c = c.parent
			}
			if root == nil {
				root = c
			}
			if c != root {
				t.Fatal("leaf disconnected from root")
			}
		}
	}
	if _, err := NewTree(0); !errors.Is(err, ErrBadTree) {
		t.Fatalf("got %v", err)
	}
}

func TestTreeWriteReadAndHops(t *testing.T) {
	tr, err := NewTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachALP(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachALP(1, 3); err != nil {
		t.Fatal(err)
	}
	id := SSVID{Agent: 0, Attr: "pos"} // homes on leaf 0
	if err := tr.Write(0, id, 1, 5); err != nil {
		t.Fatal(err)
	}
	h0 := tr.Hops // write from ALP0 (leaf 0) to leaf 0: 0 hops
	if h0 != 0 {
		t.Fatalf("local write cost %d hops", h0)
	}
	if _, err := tr.ReadAt(1, id, 1); err != nil {
		t.Fatal(err)
	}
	if tr.Hops == 0 {
		t.Fatal("remote read cost no hops")
	}
	if _, err := tr.ReadAt(99, id, 1); !errors.Is(err, ErrNoALP) {
		t.Fatalf("got %v", err)
	}
	if _, err := tr.ReadAt(0, SSVID{Agent: 9, Attr: "x"}, 1); !errors.Is(err, ErrNoSSV) {
		t.Fatalf("got %v", err)
	}
	if _, err := tr.ReadLatest(0, id); err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachALP(0, 99); !errors.Is(err, ErrBadTree) {
		t.Fatalf("got %v", err)
	}
}

func TestMigrationReducesHops(t *testing.T) {
	tr, err := NewTree(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachALP(0, 7); err != nil {
		t.Fatal(err)
	}
	// SSV homed far from ALP 0.
	id := SSVID{Agent: 0, Attr: "pos"}
	if err := tr.AttachALP(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(1, id, 0, 1); err != nil {
		t.Fatal(err)
	}
	// ALP 0 hammers it.
	for i := 0; i < 50; i++ {
		if _, err := tr.ReadAt(0, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.Hops
	moved := tr.Migrate()
	if moved != 1 {
		t.Fatalf("moved = %d", moved)
	}
	tr.Hops = 0
	for i := 0; i < 50; i++ {
		if _, err := tr.ReadAt(0, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Hops != 0 {
		t.Fatalf("post-migration reads cost %d hops (pre: %d)", tr.Hops, before)
	}
}

func TestWorldAdvanceAndQueries(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Agents: 300, ALPs: 6, Leaves: 4,
		DtMin: 0.05, DtMax: 0.3, Speed: 1, Span: 100,
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Desynchronize heavily: the fastest ALP runs 3× past the horizon.
	if err := w.AdvanceAllUneven(10, 2.0); err != nil {
		t.Fatal(err)
	}
	q := RangeQuery{Time: 10, Center: 50, Radius: 20, MinAge: 25, AskerID: 0}
	truth := w.GroundTruth(q)
	if len(truth) == 0 {
		t.Fatal("degenerate query: empty ground truth")
	}
	syncRes, err := w.RunSync(q)
	if err != nil {
		t.Fatal(err)
	}
	naiveRes, err := w.RunNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	syncErr := SymmetricDiff(syncRes.Agents, truth)
	naiveErr := SymmetricDiff(naiveRes.Agents, truth)
	if syncErr > naiveErr {
		t.Fatalf("synchronized query error %d worse than naive %d", syncErr, naiveErr)
	}
	if naiveErr == 0 {
		t.Fatal("naive query unexpectedly exact — ALPs not desynchronized?")
	}
}

func TestAdvanceALPErrors(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Agents: 10, ALPs: 2, Leaves: 2,
		DtMin: 0.1, DtMax: 0.2, Speed: 1, Span: 10,
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceALP(9, 1); !errors.Is(err, ErrNoALP) {
		t.Fatalf("got %v", err)
	}
	if _, err := NewWorld(WorldConfig{}, rng.New(1)); !errors.Is(err, ErrBadTree) {
		t.Fatalf("got %v", err)
	}
}

func TestSymmetricDiff(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{1, 2}, []int{1, 2}, 0},
		{[]int{1}, []int{2}, 2},
		{[]int{1, 2, 3}, []int{2, 4}, 3},
		{[]int{1, 2, 3}, nil, 3},
	}
	for _, c := range cases {
		if got := SymmetricDiff(c.a, c.b); got != c.want {
			t.Errorf("SymmetricDiff(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSSVsDeterministicOrder(t *testing.T) {
	tr, err := NewTree(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachALP(0, 0); err != nil {
		t.Fatal(err)
	}
	for _, ag := range []int{3, 1, 2} {
		if err := tr.Write(0, SSVID{Agent: ag, Attr: "pos"}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	ids := tr.SSVs()
	if len(ids) != 3 || ids[0].Agent != 1 || ids[2].Agent != 3 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestMigrationIsPerSSV(t *testing.T) {
	// Two SSVs homed on the same CLP, hammered by different ALPs: each
	// must migrate to ITS OWN accessor's leaf, not both to one.
	tr, err := NewTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachALP(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachALP(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachALP(9, 0); err != nil { // writer on leaf 0
		t.Fatal(err)
	}
	// Agents 0 and 4 both hash to leaf 0 (agent % 4 leaves).
	idA := SSVID{Agent: 0, Attr: "pos"}
	idB := SSVID{Agent: 4, Attr: "pos"}
	if err := tr.Write(9, idA, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(9, idB, 0, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := tr.ReadAt(0, idA, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.ReadAt(1, idB, 0); err != nil {
			t.Fatal(err)
		}
	}
	if moved := tr.Migrate(); moved != 2 {
		t.Fatalf("moved = %d, want 2", moved)
	}
	if tr.home[idA] != tr.leaves[1] {
		t.Fatal("SSV A did not migrate to ALP 0's leaf")
	}
	if tr.home[idB] != tr.leaves[2] {
		t.Fatal("SSV B did not migrate to ALP 1's leaf")
	}
}
