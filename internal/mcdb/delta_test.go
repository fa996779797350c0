package mcdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// deltaWorld describes one hypothetical change a test applies both ways:
// as a Delta against the baseline session and as a from-scratch spec in
// a second database. ExecDelta must match the second bit-for-bit.
type deltaWorld struct {
	kind      int // 0 cap, 1 shift, 2 other-table
	targetGrp int64
}

const (
	deltaKindCap = iota
	deltaKindShift
	deltaKindOther
)

// deltaShift is the shift world's change: every realized value of the
// target group moves up by it, so every iteration a group member can
// reach is dirty.
const deltaShift = 5

// buildDeltaDB constructs the items/obs fixture: a deterministic items
// table (id, grp, base) and a stochastic obs table (id, grp, val) whose
// val draws N(base, 1+grp). When changed is true the spec embeds the
// world's modification, producing the database ExecDelta must emulate.
// A second stochastic table obs2 exists for the other-table case.
func buildDeltaDB(t *testing.T, nItems, nGrps int, w deltaWorld, changed bool) *DB {
	t.Helper()
	base := engine.NewDatabase()
	items := engine.MustNewTable("items", engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "grp", Type: engine.TypeInt},
		{Name: "base", Type: engine.TypeFloat},
	})
	for i := 0; i < nItems; i++ {
		items.MustInsert(engine.Int(int64(i)), engine.Int(int64(i%nGrps)), engine.Float(10+float64(i%7)))
	}
	base.Put(items)
	db := New(base)

	baseDraw := func(params engine.Row, r *rng.Stream, vals []float64) error {
		vals[0] = params[2].AsFloat() + r.Normal(0, 1+float64(params[1].AsInt()))
		return nil
	}
	obsVG := drawEach(1, baseDraw)
	if changed && w.kind != deltaKindOther {
		m := deltaFor(w)
		obsVG = drawEach(1, func(params engine.Row, r *rng.Stream, vals []float64) error {
			err := baseDraw(params, r, vals)
			if err == nil && m.Where(params) {
				m.MapUnc(params, vals)
			}
			return err
		})
	}
	spec := &TableSpec{
		Name: "obs",
		Schema: engine.Schema{
			{Name: "id", Type: engine.TypeInt},
			{Name: "grp", Type: engine.TypeInt},
			{Name: "base", Type: engine.TypeFloat},
			{Name: "val", Type: engine.TypeFloat},
		},
		ForEach: "items",
		VG:      obsVG,
		OutputRow: func(outer engine.Row, vgOut []engine.Value) engine.Row {
			// base rides along deterministically so MapUnc deltas can
			// read it from the det row (uncertain positions are zero).
			return engine.Row{outer[0], outer[1], outer[2], vgOut[0]}
		},
		UncertainCols: []int{3},
	}
	if err := db.AddSpec(spec); err != nil {
		t.Fatal(err)
	}

	obs2VG := drawEach(1, func(params engine.Row, r *rng.Stream, vals []float64) error {
		vals[0] = 100 + r.Normal(0, 3)
		if changed && w.kind == deltaKindOther {
			deltaFor(w).MapUnc(params, vals)
		}
		return nil
	})
	spec2 := &TableSpec{
		Name: "obs2",
		Schema: engine.Schema{
			{Name: "id", Type: engine.TypeInt},
			{Name: "load", Type: engine.TypeFloat},
		},
		ForEach: "items",
		VG:      obs2VG,
		OutputRow: func(outer engine.Row, vgOut []engine.Value) engine.Row {
			return engine.Row{outer[0], vgOut[0]}
		},
		UncertainCols: []int{1},
	}
	if err := db.AddSpec(spec2); err != nil {
		t.Fatal(err)
	}
	return db
}

// deltaFor renders the world as the Delta ExecDelta receives. Its Where
// and MapUnc read only the det positions the items row shares with an
// obs row (grp, base), so the changed spec applies them to the VG's
// parameter row — the items row — as the realized-world transform.
func deltaFor(w deltaWorld) Delta {
	whereGrp := func(det engine.Row) bool { return det[1].AsInt() == w.targetGrp }
	switch w.kind {
	case deltaKindCap:
		// Cap the realized value at base + 1: it binds in some
		// iterations only, so the others are reused.
		return Delta{Table: "obs", Where: whereGrp, MapUnc: func(det engine.Row, unc []float64) {
			unc[0] = math.Min(unc[0], det[2].AsFloat()+1)
		}}
	case deltaKindShift:
		return Delta{Table: "obs", Where: whereGrp, MapUnc: func(det engine.Row, unc []float64) { unc[0] += deltaShift }}
	default:
		return Delta{Table: "obs2", MapUnc: func(det engine.Row, unc []float64) { unc[0] = 2*unc[0] - 100 }}
	}
}

func requireSameSamples(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d samples, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: iter %d: got %v, want %v (bit-identity violated)", name, i, got[i], want[i])
		}
	}
}

// TestExecDeltaRandomizedEquivalence is the delta-equivalence suite: 40
// generated pipelines, each capping or shifting one group's realized
// values or transforming an unrelated table's, executed as ExecDelta
// against the baseline session and as a fresh full Exec of the changed
// database. The two must agree bit-for-bit at every worker count, and
// disjoint ExecDeltaRange windows must concatenate to the full run —
// each doing a window's worth of work: when every iteration is dirty,
// WhereUnc is evaluated exactly tuples × (hi − lo) times. A trial whose
// predicate is a WhereUnc closure also runs it as the typed UncWhere
// conjunct, on the same dirty runs, to the same bits.
func TestExecDeltaRandomizedEquivalence(t *testing.T) {
	gen := rng.New(0xDE17A)
	ctx := context.Background()
	allDirtyWindows := 0
	for trial := 0; trial < 40; trial++ {
		nItems := 5 + gen.Intn(28)
		nGrps := 2 + gen.Intn(3)
		iters := 8 + gen.Intn(49)
		seed := gen.Uint64()
		w := deltaWorld{kind: gen.Intn(3), targetGrp: int64(gen.Intn(nGrps))}

		q := AggQuery{Table: "obs", Col: "val"}
		var forms []AggQuery // q in other forms that must give q's bits
		evals := 0           // WhereUnc evaluations; the kernel runs on the calling goroutine
		switch gen.Intn(3) {
		case 0:
			q.Fn = engine.AggCount
		case 1:
			q.Fn = engine.AggSum
		default:
			q.Fn = engine.AggAvg
		}
		switch gen.Intn(3) {
		case 1:
			// Sometimes the filtered group is the changed one, sometimes
			// not — the latter exercises full-iteration reuse.
			filterGrp := int64(gen.Intn(nGrps))
			q.WhereDet = func(det engine.Row) bool { return det[1].AsInt() == filterGrp }
		case 2:
			cut := 8 + gen.Float64()*8
			q.WhereUnc = func(det engine.Row, unc []float64) bool { evals++; return unc[0] > cut }
			typed := q
			typed.WhereUnc, typed.UncWhere = nil, []UncCmp{{Pos: 0, Op: "gt", Lit: cut}}
			forms = append(forms, typed)
		}

		db1 := buildDeltaDB(t, nItems, nGrps, w, false)
		db2 := buildDeltaDB(t, nItems, nGrps, w, true)
		s1, s2 := db1.NewSession(), db2.NewSession()
		d := deltaFor(w)

		want, err := s2.Exec(ctx, q, ExecOptions{Iterations: iters, Seed: seed})
		if err != nil {
			t.Fatalf("trial %d: full exec: %v", trial, err)
		}
		for _, workers := range []int{1, 2, 8} {
			opts := ExecOptions{Iterations: iters, Seed: seed, Workers: workers}
			got, err := s1.ExecDelta(ctx, q, opts, d)
			if err != nil {
				t.Fatalf("trial %d workers %d: ExecDelta: %v", trial, workers, err)
			}
			requireSameSamples(t, "delta vs full", want, got)
		}

		// Sharded windows concatenate to the full run, and an all-dirty
		// window (the skip counter, which covers the full run, stays 0)
		// aggregates the changed bundle over its own iterations only.
		opts := ExecOptions{Iterations: iters, Seed: seed}
		st := parallel.NewStats()
		wctx := parallel.WithStats(ctx, st)
		var parts []float64
		for _, win := range [][2]int{{0, iters}, {0, iters / 3}, {iters / 3, 2 * iters / 3}, {2 * iters / 3, iters}} {
			before := evals
			part, err := s1.ExecDeltaRange(wctx, q, opts, d, win[0], win[1])
			if err != nil {
				t.Fatalf("trial %d: ExecDeltaRange %v: %v", trial, win, err)
			}
			if q.WhereUnc != nil && st.Registry().Counter(MetricDeltaItersSkipped).Value() == 0 {
				allDirtyWindows++
				if got, want := evals-before, nItems*(win[1]-win[0]); got != want {
					t.Fatalf("trial %d window %v: %d WhereUnc evaluations, want %d tuples × %d iterations = %d",
						trial, win, got, nItems, win[1]-win[0], want)
				}
			}
			if win[1]-win[0] < iters {
				parts = append(parts, part...)
			}
		}
		requireSameSamples(t, "windowed delta", want, parts)

		for _, f := range forms {
			got, err := db1.NewSession().ExecDelta(ctx, f, ExecOptions{Iterations: iters, Seed: seed, Workers: 2}, d)
			if err != nil {
				t.Fatalf("trial %d: typed ExecDelta: %v", trial, err)
			}
			requireSameSamples(t, "typed delta", want, got)
			parts = parts[:0]
			for _, win := range [][2]int{{0, iters / 3}, {iters / 3, 2 * iters / 3}, {2 * iters / 3, iters}} {
				part, err := s1.ExecDeltaRange(ctx, f, opts, d, win[0], win[1])
				if err != nil {
					t.Fatalf("trial %d: typed ExecDeltaRange %v: %v", trial, win, err)
				}
				parts = append(parts, part...)
			}
			requireSameSamples(t, "typed windowed delta", want, parts)
		}
	}
	if allDirtyWindows == 0 {
		t.Fatal("no trial paired a WhereUnc with an all-dirty delta; the work-per-window check ran on nothing")
	}
}

// TestExecDeltaEmptyAVGConvention pins satellite semantics: iterations
// whose selection empties out yield AVG = 0 — never NaN — identically
// on the bundle and delta paths, which share a realization and so must
// agree bit-for-bit: all zeros under a predicate nothing can satisfy,
// a mix of empty and non-empty iterations under a merely-steep one.
// (TestExecEquivalenceTable pins the same convention per instance.)
func TestExecDeltaEmptyAVGConvention(t *testing.T) {
	ctx := context.Background()
	w := deltaWorld{kind: deltaKindShift, targetGrp: 1}
	db1 := buildDeltaDB(t, 5, 2, w, false)
	db2 := buildDeltaDB(t, 5, 2, w, true)
	opts := ExecOptions{Iterations: 80, Seed: 7}
	mkQ := func(cut float64) AggQuery {
		return AggQuery{
			Table: "obs", Col: "val", Fn: engine.AggAvg,
			WhereUnc: func(det engine.Row, unc []float64) bool { return unc[0] > cut },
		}
	}
	checkFinite := func(name string, samples []float64) int {
		t.Helper()
		empties := 0
		for i, v := range samples {
			if v != v {
				t.Fatalf("%s: NaN leaked into sample %d", name, i)
			}
			if v == 0 {
				empties++
			}
		}
		return empties
	}

	// Impossible predicate: all-zero sample vectors.
	impossible := mkQ(1e12)
	bundle, err := db2.NewSession().Exec(ctx, impossible, opts)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := db1.NewSession().ExecDelta(ctx, impossible, opts, deltaFor(w))
	if err != nil {
		t.Fatal(err)
	}
	requireSameSamples(t, "bundle vs delta (all empty)", bundle, delta)
	if checkFinite("all-empty delta", delta) != 80 {
		t.Fatal("impossible predicate left a non-zero sample")
	}

	// Steep predicate: empty and non-empty iterations mix.
	steep := mkQ(21)
	bundle, err = db2.NewSession().Exec(ctx, steep, opts)
	if err != nil {
		t.Fatal(err)
	}
	delta, err = db1.NewSession().ExecDelta(ctx, steep, opts, deltaFor(w))
	if err != nil {
		t.Fatal(err)
	}
	requireSameSamples(t, "bundle vs delta (mixed)", bundle, delta)
	if e := checkFinite("steep delta", delta); e == 0 || e == 80 {
		t.Fatalf("steep predicate emptied %d of 80 iterations; want a mix", e)
	}
}

// TestExecDeltaOtherTableSkipsEverything: a change to an unrelated
// stochastic table reuses every iteration of the query's bundle, and
// the skip counter says so.
func TestExecDeltaOtherTableSkipsEverything(t *testing.T) {
	w := deltaWorld{kind: deltaKindOther}
	db := buildDeltaDB(t, 10, 2, w, false)
	s := db.NewSession()
	st := parallel.NewStats()
	ctx := parallel.WithStats(context.Background(), st)
	q := AggQuery{Table: "obs", Col: "val", Fn: engine.AggAvg}
	opts := ExecOptions{Iterations: 25, Seed: 3}

	baseline, err := s.Exec(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ExecDelta(ctx, q, opts, deltaFor(w))
	if err != nil {
		t.Fatal(err)
	}
	requireSameSamples(t, "unrelated delta", baseline, got)
	if skipped := st.Registry().Counter(MetricDeltaItersSkipped).Value(); skipped != 25 {
		t.Fatalf("delta_iters_skipped = %d, want 25", skipped)
	}
}

// TestExecDeltaMapUncSkipsCleanIterations: a cap transform that rarely
// binds leaves most iterations bitwise unchanged; those must be reused
// (skip counter > 0) while the run as a whole stays bit-identical to
// the changed world, which also must contain dirty iterations for the
// test to mean anything.
func TestExecDeltaMapUncSkipsCleanIterations(t *testing.T) {
	w := deltaWorld{kind: deltaKindCap, targetGrp: 0}
	db1 := buildDeltaDB(t, 6, 3, w, false)
	db2 := buildDeltaDB(t, 6, 3, w, true)
	s := db1.NewSession()
	st := parallel.NewStats()
	ctx := parallel.WithStats(context.Background(), st)
	q := AggQuery{Table: "obs", Col: "val", Fn: engine.AggSum}
	opts := ExecOptions{Iterations: 120, Seed: 19}

	want, err := db2.NewSession().Exec(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ExecDelta(ctx, q, opts, deltaFor(w))
	if err != nil {
		t.Fatal(err)
	}
	requireSameSamples(t, "capped delta", want, got)
	skipped := st.Registry().Counter(MetricDeltaItersSkipped).Value()
	if skipped == 0 {
		t.Fatal("no iteration skipped; the cap bound every iteration")
	}
	if skipped == int64(opts.Iterations) {
		t.Fatal("every iteration skipped; the cap never bound")
	}
	if rerealized := st.Registry().Counter(MetricDeltaTuplesRerealized).Value(); rerealized != 2 {
		t.Fatalf("delta_tuples_rerealized = %d, want 2 (grp 0 of 3 over 6 items)", rerealized)
	}
}

// TestExecDeltaWindowsConcatenate: however a what-if's run is cut into
// windows — one to seven of them, at cut points on no grid — the
// windows concatenate to ExecDelta's samples bit for bit in every world
// of the suite, and each window reports the full run's counts: a
// shard keeps only its window's values, but maps and tests every
// iteration of the run.
func TestExecDeltaWindowsConcatenate(t *testing.T) {
	gen := rng.New(0x3D0C)
	ctx := context.Background()
	queries := []AggQuery{
		{Table: "obs", Col: "val", Fn: engine.AggSum},
		{Table: "obs", Col: "val", Fn: engine.AggAvg, UncWhere: []UncCmp{{Pos: 0, Op: "gt", Lit: 11}},
			WhereDet: func(det engine.Row) bool { return det[0].AsInt()%5 != 0 }},
	}
	for _, kind := range []int{deltaKindCap, deltaKindShift, deltaKindOther} {
		w := deltaWorld{kind: kind, targetGrp: 1}
		db := buildDeltaDB(t, 20, 3, w, false)
		d := deltaFor(w)
		for _, iters := range []int{37, 1000} {
			opts := ExecOptions{Iterations: iters, Seed: 41}
			for qi, q := range queries {
				full := parallel.NewStats()
				want, err := db.NewSession().ExecDelta(parallel.WithStats(ctx, full), q, opts, d)
				if err != nil {
					t.Fatal(err)
				}
				wantSkipped := full.Registry().Counter(MetricDeltaItersSkipped).Value()
				wantMapped := full.Registry().Counter(MetricDeltaTuplesRerealized).Value()
				if kind == deltaKindCap && (wantSkipped == 0 || wantSkipped == int64(iters)) {
					t.Fatalf("cap world, %d iterations: %d skipped; the cap must bind in some iterations only", iters, wantSkipped)
				}
				for _, k := range []int{1, 2, 3, 7} {
					cuts := []int{0, iters}
					for len(cuts) < k+1 {
						if c := 1 + gen.Intn(iters-1); !slices.Contains(cuts, c) {
							cuts = append(cuts, c)
						}
					}
					slices.Sort(cuts)
					s := db.NewSession()
					var got []float64
					for i := 0; i < k; i++ {
						st := parallel.NewStats()
						part, err := s.ExecDeltaRange(parallel.WithStats(ctx, st), q, opts, d, cuts[i], cuts[i+1])
						if err != nil {
							t.Fatal(err)
						}
						if len(part) != cuts[i+1]-cuts[i] {
							t.Fatalf("window [%d, %d): %d samples", cuts[i], cuts[i+1], len(part))
						}
						got = append(got, part...)
						skipped := st.Registry().Counter(MetricDeltaItersSkipped).Value()
						mapped := st.Registry().Counter(MetricDeltaTuplesRerealized).Value()
						if skipped != wantSkipped || mapped != wantMapped {
							t.Fatalf("world %d, %d iterations, query %d, window [%d, %d): skipped %d and re-mapped %d, want the full run's %d and %d",
								kind, iters, qi, cuts[i], cuts[i+1], skipped, mapped, wantSkipped, wantMapped)
						}
					}
					requireSameSamples(t, "windows "+fmt.Sprint(cuts), want, got)
				}
			}
		}
	}
}

// TestExecDeltaValidation covers the rejection surface.
func TestExecDeltaValidation(t *testing.T) {
	db := buildDeltaDB(t, 4, 2, deltaWorld{}, false)
	s := db.NewSession()
	ctx := context.Background()
	q := AggQuery{Table: "obs", Col: "val", Fn: engine.AggAvg}
	good := ExecOptions{Iterations: 5, Seed: 1}

	noop := func(det engine.Row, unc []float64) {}
	cases := []struct {
		name string
		d    Delta
		want error
	}{
		{"no table", Delta{MapUnc: noop}, ErrNoSpec},
		{"unknown table", Delta{Table: "nope", MapUnc: noop}, ErrNoSpec},
		{"nil MapUnc", Delta{Table: "obs"}, ErrBadQuery},
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
		{"bad aggregate", AggQuery{Table: "obs", Col: "val", Fn: engine.AggFunc(99)}, good, 0, 5},
		{"unknown column", AggQuery{Table: "obs", Col: "nope", Fn: engine.AggAvg}, good, 0, 5},
		{"deterministic column", AggQuery{Table: "obs", Col: "grp", Fn: engine.AggAvg}, good, 0, 5},
		{"UncWhere position past the uncertain columns", AggQuery{Table: "obs", Col: "val", Fn: engine.AggAvg,
			UncWhere: []UncCmp{{Pos: 1, Op: "gt"}}}, good, 0, 5},
		{"negative UncWhere position", AggQuery{Table: "obs", Col: "val", Fn: engine.AggAvg,
			UncWhere: []UncCmp{{Pos: -1, Op: "gt"}}}, good, 0, 5},
		{"unknown UncWhere operator", AggQuery{Table: "obs", Col: "val", Fn: engine.AggAvg,
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
		_, err = s.ExecDeltaRange(ctx, tc.q, tc.opts, Delta{Table: "obs", MapUnc: noop}, tc.lo, tc.hi)
		check("ExecDeltaRange", err)
		if tc.lo == 0 { // ExecLineage takes no window
			_, err = s.ExecLineage(ctx, tc.q, tc.opts)
			check("ExecLineage", err)
		}
	}
	if _, err := s.ExecSQLRange(ctx, "SELECT AVG(val) FROM obs", good, 3, 9); !errors.Is(err, ErrBadQuery) {
		t.Errorf("ExecSQLRange window beyond Iterations: got %v, want ErrBadQuery", err)
	}
	// A spec with no UncertainCols has no position an UncWhere can name.
	twin := perInstanceTwin(t, db).NewSession()
	if _, err := twin.Exec(ctx, AggQuery{Table: "obs", Col: "val", Fn: engine.AggAvg,
		UncWhere: []UncCmp{{Pos: 0, Op: "gt"}}}, good); !errors.Is(err, ErrBadQuery) {
		t.Errorf("UncWhere on a spec with no UncertainCols: got %v, want ErrBadQuery", err)
	}
}

// TestExecLineage checks per-iteration why-provenance against a direct
// scan of the realized bundle, that iterations with identical lineage
// share one interned slice (and unequal ones do not), that an
// iteration with no contributors is an empty, non-nil slice, and that
// the uncertain predicate gives the same sets as a WhereUnc closure, a
// typed UncWhere conjunct, or both.
func TestExecLineage(t *testing.T) {
	db := buildDeltaDB(t, 6, 2, deltaWorld{}, false)
	s := db.NewSession()
	ctx := context.Background()
	q := AggQuery{
		Table: "obs", Col: "val", Fn: engine.AggAvg,
		WhereDet: func(det engine.Row) bool { return det[1].AsInt() == 0 },
		WhereUnc: func(det engine.Row, unc []float64) bool { return unc[0] > 11 },
	}
	opts := ExecOptions{Iterations: 20, Seed: 5}

	lin, err := s.ExecLineage(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) != 20 {
		t.Fatalf("%d iterations of lineage, want 20", len(lin))
	}
	bt, err := s.bundleFor(ctx, opts, "obs")
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < bt.Iters; it++ {
		want := []int{}
		for ti := range bt.Det {
			if bt.Det[ti][1].AsInt() == 0 && bt.Unc[ti][0][it] > 11 {
				want = append(want, ti)
			}
		}
		if lin[it] == nil || !slices.Equal(lin[it], want) {
			t.Fatalf("iter %d: lineage %#v, want %v", it, lin[it], want)
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
	typed.WhereUnc, typed.UncWhere = nil, []UncCmp{{Pos: 0, Op: "gt", Lit: 11}}
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
