package simsql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
	"modeldata/internal/stats"
)

// walkChain defines a database-valued Markov chain holding a single
// one-row table "walk" whose value performs a Gaussian random walk with
// the given drift: D[i].value = D[i−1].value + N(drift, 1).
func walkChain(drift float64) *Chain {
	schema := engine.Schema{{Name: "value", Type: engine.TypeFloat}}
	return &Chain{
		Defs: []TableDef{{
			Name: "walk",
			Generate: func(state *engine.Database, r *rng.Stream) (*engine.Table, error) {
				prevVal := 0.0
				if pt, err := state.Get(PrevName("walk")); err == nil {
					prevVal = pt.Rows[0][0].AsFloat()
				}
				t, err := engine.NewTable("walk", schema)
				if err != nil {
					return nil, err
				}
				err = t.Insert(engine.Row{engine.Float(prevVal + r.Normal(drift, 1))})
				return t, err
			},
		}},
	}
}

func TestChainRunVersions(t *testing.T) {
	c := walkChain(0)
	realz, err := c.RunCtx(context.Background(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(realz.Versions) != 11 {
		t.Fatalf("versions = %d, want 11", len(realz.Versions))
	}
	for i := 0; i < 11; i++ {
		tbl, err := realz.Versions[i].Get("walk")
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != 1 {
			t.Fatalf("version %d has %d rows", i, tbl.Len())
		}
	}
}

func TestChainMarkovDependence(t *testing.T) {
	// With drift 1 and N(1, 1) increments, E[D[i].value] = i+1 at
	// version i (one increment applied at every version including 0).
	c := walkChain(1)
	means, err := c.MonteCarloCtx(context.Background(), 20, 300, 7, 0, func(db *engine.Database) (float64, error) {
		tbl, err := db.Get("walk")
		if err != nil {
			return 0, err
		}
		return tbl.Rows[0][0].AsFloat(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range means {
		want := float64(i + 1)
		if math.Abs(m-want) > 0.5 {
			t.Fatalf("E[D[%d]] = %g, want ≈ %g", i, m, want)
		}
	}
}

func TestChainDeterministicForSeed(t *testing.T) {
	c := walkChain(0)
	r1, err := c.RunCtx(context.Background(), 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.RunCtx(context.Background(), 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 5; i++ {
		t1, _ := r1.Versions[i].Get("walk")
		t2, _ := r2.Versions[i].Get("walk")
		if t1.Rows[0][0].AsFloat() != t2.Rows[0][0].AsFloat() {
			t.Fatal("chain not deterministic")
		}
	}
}

func TestChainCrossTableParametrization(t *testing.T) {
	// SimSQL's headline feature: stochastic table A parametrizes B,
	// and B's previous version parametrizes the next A (§2.1).
	// A[i].v = B[i−1].v + 1 (or 0 at i = 0); B[i].v = 2·A[i].v.
	schema := engine.Schema{{Name: "v", Type: engine.TypeFloat}}
	oneRow := func(v float64) (*engine.Table, error) {
		t, err := engine.NewTable("x", schema)
		if err != nil {
			return nil, err
		}
		err = t.Insert(engine.Row{engine.Float(v)})
		return t, err
	}
	c := &Chain{
		Defs: []TableDef{
			{
				Name: "a",
				Generate: func(state *engine.Database, r *rng.Stream) (*engine.Table, error) {
					base := 0.0
					if pb, err := state.Get(PrevName("b")); err == nil {
						base = pb.Rows[0][0].AsFloat()
					}
					return oneRow(base + 1)
				},
			},
			{
				Name: "b",
				Generate: func(state *engine.Database, r *rng.Stream) (*engine.Table, error) {
					// Reads the CURRENT version of a (defined earlier
					// in this step).
					a, err := state.Get("a")
					if err != nil {
						return nil, err
					}
					return oneRow(2 * a.Rows[0][0].AsFloat())
				},
			},
		},
	}
	realz, err := c.RunCtx(context.Background(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// a[0]=1, b[0]=2; a[1]=3, b[1]=6; a[2]=7, b[2]=14; a[3]=15, b[3]=30.
	wantA := []float64{1, 3, 7, 15}
	wantB := []float64{2, 6, 14, 30}
	for i := 0; i <= 3; i++ {
		a, _ := realz.Versions[i].Get("a")
		b, _ := realz.Versions[i].Get("b")
		if a.Rows[0][0].AsFloat() != wantA[i] || b.Rows[0][0].AsFloat() != wantB[i] {
			t.Fatalf("version %d: a=%g b=%g, want a=%g b=%g",
				i, a.Rows[0][0].AsFloat(), b.Rows[0][0].AsFloat(), wantA[i], wantB[i])
		}
	}
}

func TestChainErrors(t *testing.T) {
	if _, err := (&Chain{}).RunCtx(context.Background(), 1, 1); !errors.Is(err, ErrNoDefs) {
		t.Fatalf("got %v", err)
	}
	c := walkChain(0)
	if _, err := c.RunCtx(context.Background(), -1, 1); err == nil {
		t.Fatal("negative steps accepted")
	}
	if _, err := c.MonteCarloCtx(context.Background(), 1, 0, 1, 0, nil); err == nil {
		t.Fatal("nChains=0 accepted")
	}
	bad := &Chain{Defs: []TableDef{{
		Name: "x",
		Generate: func(*engine.Database, *rng.Stream) (*engine.Table, error) {
			return nil, errors.New("gen-fail")
		},
	}}}
	if _, err := bad.RunCtx(context.Background(), 1, 1); err == nil {
		t.Fatal("generator error swallowed")
	}
}

// flockAgents builds agents scattered on a line, keyed into unit cells.
func flockAgents(t *testing.T, n int, seed uint64) *engine.Table {
	t.Helper()
	r := rng.New(seed)
	agents := engine.MustNewTable("agents", engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "pos", Type: engine.TypeFloat},
	})
	for i := 0; i < n; i++ {
		agents.MustInsert(engine.Int(int64(i)), engine.Float(r.Float64()*4))
	}
	return agents
}

// flockStep moves each agent halfway toward the mean position of its
// cell-mates (no randomness in Update unless noise > 0).
func flockStep(noise float64) ABSStep {
	return ABSStep{
		PartKey:    func(r engine.Row) string { return fmt.Sprintf("%d", int(r[1].AsFloat())) },
		Near:       func(a, b engine.Row) bool { return true },
		Accumulate: func(acc float64, b engine.Row) float64 { return acc + b[1].AsFloat() },
		Update: func(a engine.Row, acc float64, n int, r *rng.Stream) engine.Row {
			pos := a[1].AsFloat()
			if n > 0 {
				pos += 0.5 * (acc/float64(n) - pos)
			}
			if noise > 0 {
				pos += r.Normal(0, noise)
			}
			return engine.Row{a[0], engine.Float(pos)}
		},
	}
}

func TestABSStepFlockingContracts(t *testing.T) {
	agents := flockAgents(t, 200, 3)
	// Within-cell variance must shrink after a deterministic step.
	perCellVar := func(tbl *engine.Table) float64 {
		cells := make(map[int][]float64)
		for _, r := range tbl.Rows {
			c := int(r[1].AsFloat())
			cells[c] = append(cells[c], r[1].AsFloat())
		}
		ids := make([]int, 0, len(cells))
		for c := range cells {
			ids = append(ids, c)
		}
		sort.Ints(ids) // fixed fold order keeps the bound bit-stable
		total := 0.0
		for _, c := range ids {
			total += stats.Variance(cells[c])
		}
		return total
	}
	before := perCellVar(agents)
	next, err := flockStep(0).Apply(agents, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := perCellVar(next)
	if after >= before/2 {
		t.Fatalf("within-cell variance %g → %g, expected strong contraction", before, after)
	}
	if next.Len() != agents.Len() {
		t.Fatalf("agent count changed: %d → %d", agents.Len(), next.Len())
	}
}

func TestABSStepDeterministic(t *testing.T) {
	agents := flockAgents(t, 50, 4)
	step := flockStep(0.1)
	a, err := step.Apply(agents, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := step.Apply(agents, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i][1].AsFloat() != b.Rows[i][1].AsFloat() {
			t.Fatal("ABSStep not deterministic for fixed seed")
		}
	}
}

func TestABSStepNilHooks(t *testing.T) {
	agents := flockAgents(t, 5, 5)
	if _, err := (ABSStep{}).Apply(agents, 1); !errors.Is(err, ErrNilHook) {
		t.Fatalf("got %v", err)
	}
}
