package mcdb

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// whatIf runs d as a what-if of q in a fresh session, holds its samples
// to bundleRef's bits, and returns them with the run's counters.
func whatIf(t *testing.T, db *DB, q AggQuery, opts ExecOptions, d Delta) ([]float64, *obs.Registry) {
	t.Helper()
	st := parallel.NewStats()
	got, err := db.NewSession().ExecDelta(parallel.WithStats(context.Background(), st), q, opts, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bundleRef(db, q, opts, &d)
	if err != nil {
		t.Fatal(err)
	}
	for it, v := range want.samples {
		if !sameBits(got[it], v) {
			t.Fatalf("iteration %d: %v, reference %v", it, got[it], v)
		}
	}
	return got, st.Registry()
}

// TestExecDeltaEmptyAVGConvention pins satellite semantics: iterations
// whose selection empties out yield AVG = 0 — never NaN — on the delta
// path, as the bundle reference writes the rule out: all zeros under a
// predicate nothing can satisfy, a mix of empty and non-empty
// iterations under a merely-steep one.
func TestExecDeltaEmptyAVGConvention(t *testing.T) {
	db := sbpFixture(t, 5)
	opts := ExecOptions{Iterations: 80, Seed: 7}
	shift := Delta{Table: "sbp_data", Where: func(det engine.Row) bool { return det[1].AsString() == "M" },
		MapUnc: func(_ engine.Row, unc []float64) { unc[0] += 5 }}
	for _, cut := range []float64{1e12, 150} {
		q := AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg,
			WhereUnc: func(_ engine.Row, unc []float64) bool { return unc[0] > cut }}
		got, _ := whatIf(t, db, q, opts, shift)
		empties := 0
		for i, v := range got {
			if v != v {
				t.Fatalf("cut %v: NaN leaked into sample %d", cut, i)
			}
			if v == 0 {
				empties++
			}
		}
		if empties == 0 || (empties == len(got)) != (cut == 1e12) {
			t.Fatalf("cut %v emptied %d of %d iterations, want all at 1e12 and some at 150", cut, empties, len(got))
		}
	}
}

// TestExecDeltaOtherTableSkipsEverything: a change to an unrelated
// stochastic table reuses every iteration of the query's bundle, and
// the skip counter says so.
func TestExecDeltaOtherTableSkipsEverything(t *testing.T) {
	w := newWorld(0)
	_, reg := whatIf(t, w.db, AggQuery{Table: "s", Col: "val", Fn: engine.AggAvg}, ExecOptions{Iterations: 25, Seed: 3},
		Delta{Table: w.other, MapUnc: func(_ engine.Row, unc []float64) { unc[0] = 2*unc[0] - 100 }})
	if skipped := reg.Counter(MetricDeltaItersSkipped).Value(); skipped != 25 {
		t.Fatalf("delta_iters_skipped = %d, want 25", skipped)
	}
}

// TestExecDeltaMapUncSkipsCleanIterations: a cap transform that rarely
// binds leaves most iterations bitwise unchanged; those must be reused
// (skip counter > 0) while the run as a whole stays bit-identical to
// the changed world, which also must contain dirty iterations for the
// test to mean anything.
func TestExecDeltaMapUncSkipsCleanIterations(t *testing.T) {
	opts := ExecOptions{Iterations: 120, Seed: 19}
	_, reg := whatIf(t, sbpFixture(t, 6), AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggSum}, opts,
		Delta{Table: "sbp_data", Where: func(det engine.Row) bool { return det[1].AsString() == "M" },
			MapUnc: func(_ engine.Row, unc []float64) { unc[0] = math.Min(unc[0], 140) }})
	skipped := reg.Counter(MetricDeltaItersSkipped).Value()
	if skipped == 0 {
		t.Fatal("no iteration skipped; the cap bound every iteration")
	}
	if skipped == int64(opts.Iterations) {
		t.Fatal("every iteration skipped; the cap never bound")
	}
	if rerealized := reg.Counter(MetricDeltaTuplesRerealized).Value(); rerealized != 3 {
		t.Fatalf("delta_tuples_rerealized = %d, want 3 (the men of 6 patients)", rerealized)
	}
}

// TestExecDeltaValidation covers the rejection surface.
func TestExecDeltaValidation(t *testing.T) {
	s := sbpFixture(t, 4).NewSession()
	ctx := context.Background()
	q := AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg}
	good := ExecOptions{Iterations: 5, Seed: 1}

	noop := func(det engine.Row, unc []float64) {}
	cases := []struct {
		name string
		d    Delta
		want error
	}{
		{"no table", Delta{MapUnc: noop}, ErrNoSpec},
		{"unknown table", Delta{Table: "nope", MapUnc: noop}, ErrNoSpec},
		{"nil MapUnc", Delta{Table: "sbp_data"}, ErrBadQuery},
	}
	for _, tc := range cases {
		if _, err := s.ExecDelta(ctx, q, good, tc.d); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// What the shared preamble rejects is marked as the caller's fault,
	// on every entry point alike.
	badQueries := []struct {
		name   string
		q      AggQuery
		opts   ExecOptions
		lo, hi int
	}{
		{"zero iters", q, ExecOptions{}, 0, 0},
		{"window beyond Iterations", q, good, 3, 9},
		{"bad aggregate", AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggFunc(99)}, good, 0, 5},
		{"unknown column", AggQuery{Table: "sbp_data", Col: "nope", Fn: engine.AggAvg}, good, 0, 5},
		{"deterministic column", AggQuery{Table: "sbp_data", Col: "pid", Fn: engine.AggAvg}, good, 0, 5},
		{"UncWhere position past the uncertain columns", AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg,
			UncWhere: []UncCmp{{Pos: 1, Op: "gt"}}}, good, 0, 5},
		{"negative UncWhere position", AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg,
			UncWhere: []UncCmp{{Pos: -1, Op: "gt"}}}, good, 0, 5},
		{"unknown UncWhere operator", AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg,
			UncWhere: []UncCmp{{Pos: 0, Op: "gt"}, {Pos: 0, Op: ">"}}}, good, 0, 5},
	}
	for _, tc := range badQueries {
		check := func(entry string, err error) {
			t.Helper()
			if !errors.Is(err, ErrBadQuery) {
				t.Errorf("%s via %s: got %v, want ErrBadQuery", tc.name, entry, err)
			}
		}
		_, err := s.ExecRange(ctx, tc.q, tc.opts, tc.lo, tc.hi)
		check("ExecRange", err)
		_, err = s.ExecDeltaRange(ctx, tc.q, tc.opts, Delta{Table: "sbp_data", MapUnc: noop}, tc.lo, tc.hi)
		check("ExecDeltaRange", err)
		if tc.lo == 0 { // ExecLineage takes no window
			_, err = s.ExecLineage(ctx, tc.q, tc.opts)
			check("ExecLineage", err)
		}
	}
	if _, err := s.ExecSQLRange(ctx, "SELECT AVG(sbp) FROM sbp_data", good, 3, 9); !errors.Is(err, ErrBadQuery) {
		t.Errorf("ExecSQLRange window beyond Iterations: got %v, want ErrBadQuery", err)
	}
	// A spec with no UncertainCols has no position an UncWhere can name.
	perInstance := newWorld(uint64(len(oracleShapes()))).db.NewSession()
	if _, err := perInstance.Exec(ctx, AggQuery{Table: "s", Col: "val", Fn: engine.AggAvg,
		UncWhere: []UncCmp{{Pos: 0, Op: "gt"}}}, good); !errors.Is(err, ErrBadQuery) {
		t.Errorf("UncWhere on a spec with no UncertainCols: got %v, want ErrBadQuery", err)
	}
}

// TestExecLineage checks per-iteration why-provenance against the
// bundle reference's contributing tuples, that iterations with identical lineage
// share one interned slice (and unequal ones do not), that an
// iteration with no contributors is an empty, non-nil slice, and that
// the uncertain predicate gives the same sets as a WhereUnc closure, a
// typed UncWhere conjunct, or both.
func TestExecLineage(t *testing.T) {
	db := sbpFixture(t, 6)
	s := db.NewSession()
	ctx := context.Background()
	q := AggQuery{
		Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg,
		WhereDet: func(det engine.Row) bool { return det[1].AsString() == "M" },
		WhereUnc: func(det engine.Row, unc []float64) bool { return unc[0] > 125 },
	}
	opts := ExecOptions{Iterations: 20, Seed: 5}

	lin, err := s.ExecLineage(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) != 20 {
		t.Fatalf("%d iterations of lineage, want 20", len(lin))
	}
	want, err := bundleRef(db, q, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for it, set := range want.lineage {
		if lin[it] == nil || !slices.Equal(lin[it], set) {
			t.Fatalf("iter %d: lineage %#v, want %v", it, lin[it], set)
		}
	}
	shared, apart := 0, 0
	for a := range lin {
		for b := a + 1; b < len(lin); b++ {
			if len(lin[a]) == 0 || len(lin[b]) == 0 {
				continue
			}
			same := &lin[a][0] == &lin[b][0]
			if equal := slices.Equal(lin[a], lin[b]); same != equal {
				t.Fatalf("iters %d and %d: equal sets %v, shared slice %v", a, b, equal, same)
			}
			if same {
				shared++
			} else {
				apart++
			}
		}
	}
	if shared == 0 || apart == 0 {
		t.Fatalf("%d pairs of iterations share a lineage set and %d do not; the interning check needs both", shared, apart)
	}

	typed := q
	typed.WhereUnc, typed.UncWhere = nil, []UncCmp{{Pos: 0, Op: "gt", Lit: 125}}
	both := typed
	both.WhereUnc = func(det engine.Row, unc []float64) bool { return unc[0] < 1e300 }
	for _, f := range []AggQuery{typed, both} {
		got, err := s.ExecLineage(ctx, f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, lin, slices.Equal[[]int]) {
			t.Fatalf("typed lineage %v, closure lineage %v", got, lin)
		}
	}

	none := q
	none.WhereUnc = func(det engine.Row, unc []float64) bool { return false }
	if lin, err = s.ExecLineage(ctx, none, opts); err != nil {
		t.Fatal(err)
	}
	for it, l := range lin {
		if l == nil || len(l) != 0 {
			t.Fatalf("iter %d of an empty selection: lineage %#v, want []int{}", it, l)
		}
	}
}
