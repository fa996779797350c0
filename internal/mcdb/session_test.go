package mcdb

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// TestBundleCacheBoundedUnderSeedChurn is the long-running-server
// regression: a Session hammered with distinct (iterations, seed)
// configurations must keep its realization cache bounded, counting
// evictions, instead of holding every bundle set ever realized.
func TestBundleCacheBoundedUnderSeedChurn(t *testing.T) {
	db := sbpFixture(t, 6)
	s := db.NewSession()
	st := parallel.NewStats()
	ctx := parallel.WithStats(context.Background(), st)
	q := AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg}

	const churn = 40
	for seed := uint64(0); seed < churn; seed++ {
		if _, err := s.Exec(ctx, q, ExecOptions{Iterations: 5, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.bundles.Len(); got > DefaultBundleCacheCap {
		t.Fatalf("bundle cache holds %d entries, capacity %d", got, DefaultBundleCacheCap)
	}
	reg := st.Registry()
	if ev := reg.Counter(MetricRealizeCacheEvictions).Value(); ev != churn-DefaultBundleCacheCap {
		t.Fatalf("evictions = %d, want %d", ev, churn-DefaultBundleCacheCap)
	}
	if misses := reg.Counter(MetricRealizeCacheMisses).Value(); misses != churn {
		t.Fatalf("misses = %d, want %d", misses, churn)
	}

	// Recently used seeds still hit; evicted ones re-realize.
	if _, err := s.Exec(ctx, q, ExecOptions{Iterations: 5, Seed: churn - 1}); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter(MetricRealizeCacheHits).Value(); hits != 1 {
		t.Fatalf("hits = %d, want 1 for a recently cached seed", hits)
	}

	// A tiny explicit capacity is honored too.
	s2 := db.NewSessionCache(2)
	for seed := uint64(0); seed < 10; seed++ {
		if _, err := s2.Exec(ctx, q, ExecOptions{Iterations: 5, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s2.bundles.Len(); got > 2 {
		t.Fatalf("capacity-2 cache holds %d entries", got)
	}
}

// sameBits reports bitwise equality of two samples, all NaN payloads
// counting as one class.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestExecEquivalenceTable is the one table over Session.Exec's
// configuration axes: {a spec with UncertainCols, its twin without} ×
// {workers 1, 2, 8} × {one window, three windows concatenated} ×
// {COUNT, SUM, AVG} × {no predicate, one that empties some iterations,
// one that empties all}. Per spec every cell holds identical bytes; the
// two executors draw different realizations but must agree on the
// empty-selection convention: COUNT = SUM = AVG = 0, never NaN. On
// bundles the table also counts WhereUnc evaluations: a window costs
// tuples × (hi − lo) of them, the full run being the window [0, iters).
func TestExecEquivalenceTable(t *testing.T) {
	const iters, patients = 60, 4
	windows := [][2]int{{0, 19}, {19, 37}, {37, iters}}
	ctx := context.Background()
	bundled := sbpFixture(t, patients)
	evals := 0 // the bundle kernel runs on the calling goroutine
	specs := []struct {
		name string
		db   *DB
		// where renders "sbp > cut" in the form the spec's executor reads
		// it: per iteration on bundles, on the realized row per instance.
		where func(q *AggQuery, cut float64)
	}{
		{"bundled", bundled, func(q *AggQuery, cut float64) {
			q.WhereUnc = func(det engine.Row, unc []float64) bool { evals++; return unc[0] > cut }
		}},
		{"per-instance", perInstanceTwin(t, bundled), func(q *AggQuery, cut float64) {
			q.WhereDet = func(row engine.Row) bool { return row[2].AsFloat() > cut }
		}},
	}
	// SBP draws are N(120, 15): a 140 mmHg floor leaves about two
	// iterations in three with no qualifying tuple out of 4 patients,
	// 1e12 leaves all.
	cuts := []struct {
		name               string
		cut                float64
		minEmpty, maxEmpty int
	}{{"all", math.Inf(-1), 0, 0}, {"some-empty", 140, 1, iters - 1}, {"all-empty", 1e12, iters, iters}}

	for _, sp := range specs {
		for _, c := range cuts {
			byFn := map[engine.AggFunc][]float64{}
			for _, fn := range []engine.AggFunc{engine.AggCount, engine.AggSum, engine.AggAvg} {
				q := AggQuery{Table: "sbp_data", Col: "sbp", Fn: fn}
				sp.where(&q, c.cut)
				for _, workers := range []int{1, 2, 8} {
					s := sp.db.NewSession() // fresh: no realization cached from another worker count
					opts := ExecOptions{Iterations: iters, Seed: 11, Workers: workers}
					evals = 0
					full, err := s.Exec(ctx, q, opts)
					if err != nil {
						t.Fatalf("%s/%s/%v workers=%d: %v", sp.name, c.name, fn, workers, err)
					}
					if q.WhereUnc != nil && evals != patients*iters {
						t.Fatalf("%s/%s/%v: full run evaluated WhereUnc %d times, want %d", sp.name, c.name, fn, evals, patients*iters)
					}
					var parts []float64
					for _, w := range windows {
						evals = 0
						p, err := s.ExecRange(ctx, q, opts, w[0], w[1])
						if err != nil {
							t.Fatalf("%s/%s/%v window %v: %v", sp.name, c.name, fn, w, err)
						}
						if q.WhereUnc != nil && evals != patients*(w[1]-w[0]) {
							t.Fatalf("%s/%s/%v window %v: evaluated WhereUnc %d times, want %d tuples × %d iterations",
								sp.name, c.name, fn, w, evals, patients, w[1]-w[0])
						}
						parts = append(parts, p...)
					}
					if byFn[fn] == nil {
						byFn[fn] = full
					}
					if len(full) != iters || len(parts) != iters {
						t.Fatalf("%s/%s/%v: %d and %d samples, want %d", sp.name, c.name, fn, len(full), len(parts), iters)
					}
					for i, want := range byFn[fn] {
						if !sameBits(full[i], want) || !sameBits(parts[i], want) {
							t.Fatalf("%s/%s/%v workers=%d iter %d: full %v, windows %v, want %v",
								sp.name, c.name, fn, workers, i, full[i], parts[i], want)
						}
					}
				}
			}
			empties := 0
			for i, n := range byFn[engine.AggCount] {
				sum, avg := byFn[engine.AggSum][i], byFn[engine.AggAvg][i]
				if sum != sum || avg != avg {
					t.Fatalf("%s/%s iter %d: NaN leaked into samples", sp.name, c.name, i)
				}
				if n == 0 {
					empties++
					if math.Float64bits(sum) != 0 || math.Float64bits(avg) != 0 {
						t.Fatalf("%s/%s iter %d: empty selection gave SUM %v AVG %v, want 0", sp.name, c.name, i, sum, avg)
					}
				}
			}
			if empties < c.minEmpty || empties > c.maxEmpty {
				t.Fatalf("%s/%s: %d of %d iterations empty, want %d to %d; the cut exercises nothing",
					sp.name, c.name, empties, iters, c.minEmpty, c.maxEmpty)
			}
		}
	}
}

// TestEstimateRunsMatchFull is the property the shared kernel rests
// on: restricted to any set of iterations, it yields at each of them
// bitwise what the full estimate holds there.
func TestEstimateRunsMatchFull(t *testing.T) {
	const iters = 64
	bundles, err := sbpFixture(t, 9).InstantiateBundled(iters, 5)
	if err != nil {
		t.Fatal(err)
	}
	bt := bundles["sbp_data"]
	preds := []UncPredicate{nil, func(det engine.Row, unc []float64) bool { return unc[0] > 135 }}
	gen := rng.New(0xD127)
	for trial := 0; trial < 30; trial++ {
		density := float64(trial%6) / 5 // 0 (none dirty) … 1 (all dirty)
		flags := make([]bool, iters)
		for it := range flags {
			flags[it] = gen.Float64() < density
		}
		for _, fn := range []engine.AggFunc{engine.AggCount, engine.AggSum, engine.AggAvg} {
			for pi, pred := range preds {
				full, err := bt.Estimate("sbp", fn, pred)
				if err != nil {
					t.Fatal(err)
				}
				part, err := bt.estimate("sbp", fn, pred, runsOf(flags))
				if err != nil {
					t.Fatal(err)
				}
				for it, dirty := range flags {
					if dirty && !sameBits(part[it], full[it]) {
						t.Fatalf("trial %d %v pred %d iter %d: restricted %v, full %v", trial, fn, pi, it, part[it], full[it])
					}
				}
			}
		}
	}
}

// TestExecRangeShardsBitIdentical checks the serving-layer shard
// invariant at the session level: disjoint iteration windows
// concatenated in index order equal the full run, on the SQL path
// (TestExecEquivalenceTable holds the same for aggregates, on both
// executors).
func TestExecRangeShardsBitIdentical(t *testing.T) {
	s := sbpFixture(t, 8).NewSession()
	ctx := context.Background()
	const iters = 30
	const sql = "SELECT AVG(sbp) FROM sbp_data"
	opts := ExecOptions{Iterations: iters, Seed: 3, Workers: 4}
	full, err := s.ExecSQL(ctx, sql, opts)
	if err != nil || len(full) != iters {
		t.Fatalf("full run: %d samples, err %v", len(full), err)
	}
	var got []float64
	for _, w := range [][2]int{{0, 9}, {9, 17}, {17, 30}} {
		p, err := s.ExecSQLRange(ctx, sql, opts, w[0], w[1])
		if err != nil || len(p) != w[1]-w[0] {
			t.Fatalf("window %v: %d samples, err %v", w, len(p), err)
		}
		got = append(got, p...)
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("iter %d: sharded %v != full %v", i, got[i], full[i])
		}
	}

	if _, err := s.ExecRange(ctx, AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg},
		ExecOptions{Iterations: iters, Seed: 3}, 5, 40); err == nil {
		t.Fatal("out-of-range window must error")
	}
}

// TestExplainSQLCachedInstantiation checks the server-readiness fix:
// the seed-0 explain instantiation is built once per session, and a
// canceled context aborts the build instead of running to completion.
func TestExplainSQLCachedInstantiation(t *testing.T) {
	db := sbpFixture(t, 5)
	s := db.NewSession()
	ctx := context.Background()
	const sql = "SELECT COUNT(pid) FROM sbp_data"
	if _, _, err := s.ExplainSQL(ctx, sql); err != nil {
		t.Fatal(err)
	}
	inst1 := s.explainInst
	if inst1 == nil {
		t.Fatal("explain instantiation not cached")
	}
	if _, _, err := s.ExplainSQL(ctx, "SELECT SUM(sbp) FROM sbp_data"); err != nil {
		t.Fatal(err)
	}
	if s.explainInst != inst1 {
		t.Fatal("second EXPLAIN rebuilt the instantiation")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	s2 := db.NewSession()
	if _, _, err := s2.ExplainSQL(canceled, sql); err == nil {
		t.Fatal("ExplainSQL ignored a canceled context")
	}
	if s2.explainInst != nil {
		t.Fatal("canceled EXPLAIN must not cache a partial instantiation")
	}
}

// TestSessionConcurrentHammer drives one Session from many goroutines
// mixing every public entry point under -race, asserting each caller
// sees samples bit-identical to a serial reference run. ExecSQL is the
// per-instance executor's entry here; its aggregate form runs the same
// loop.
func TestSessionConcurrentHammer(t *testing.T) {
	db := sbpFixture(t, 6)
	ref := db.NewSession()
	ctx := context.Background()

	aggQ := AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg}
	const sql = "SELECT AVG(sbp_data.sbp) FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid WHERE patients.gender = 'M'"
	const explainSQL = "SELECT COUNT(pid) FROM sbp_data"

	seeds := []uint64{1, 2, 3}
	wantBundle := make(map[uint64][]float64)
	wantSQL := make(map[uint64][]float64)
	for _, seed := range seeds {
		opts := ExecOptions{Iterations: 12, Seed: seed, Workers: 1}
		b, err := ref.Exec(ctx, aggQ, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantBundle[seed] = b
		sq, err := ref.ExecSQL(ctx, sql, ExecOptions{Iterations: 12, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantSQL[seed] = sq
	}
	wantExplain, _, err := ref.ExplainSQL(ctx, explainSQL)
	if err != nil {
		t.Fatal(err)
	}

	s := db.NewSession()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				seed := seeds[(g+round)%len(seeds)]
				opts := ExecOptions{Iterations: 12, Seed: seed, Workers: 2}
				switch g % 3 {
				case 0:
					got, err := s.Exec(ctx, aggQ, opts)
					if err != nil {
						errc <- err
						return
					}
					for i := range got {
						if got[i] != wantBundle[seed][i] {
							t.Errorf("goroutine %d: bundle seed %d iter %d: %v != %v", g, seed, i, got[i], wantBundle[seed][i])
							return
						}
					}
				case 1:
					got, err := s.ExecSQL(ctx, sql, ExecOptions{Iterations: 12, Seed: seed, Workers: 2})
					if err != nil {
						errc <- err
						return
					}
					for i := range got {
						if got[i] != wantSQL[seed][i] {
							t.Errorf("goroutine %d: sql seed %d iter %d: %v != %v", g, seed, i, got[i], wantSQL[seed][i])
							return
						}
					}
				case 2:
					if _, err := s.Prepared(sql); err != nil {
						errc <- err
						return
					}
					text, _, err := s.ExplainSQL(ctx, explainSQL)
					if err != nil {
						errc <- err
						return
					}
					if !strings.Contains(text, "scan sbp_data") || text != wantExplain {
						t.Errorf("goroutine %d: EXPLAIN text diverged", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPreparedCacheBoundedUnderStatementChurn is the companion
// regression to the bundle-cache test for the other per-session cache:
// a session fed distinct SQL texts (a query service relaying arbitrary
// tenant statements) must keep its prepared-statement cache bounded
// instead of pinning every plan ever parsed, while repeated texts still
// share one Prepared.
func TestPreparedCacheBoundedUnderStatementChurn(t *testing.T) {
	db := sbpFixture(t, 4)
	s := db.NewSession()

	first, err := s.Prepared("SELECT AVG(sbp) FROM sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Prepared("SELECT AVG(sbp) FROM sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("repeated statement text must share one *engine.Prepared")
	}

	for i := 0; i < 3*DefaultPreparedCacheCap; i++ {
		sql := "SELECT AVG(sbp) FROM sbp_data WHERE sbp > " + strconv.Itoa(i)
		if _, err := s.Prepared(sql); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.prepared.Len(); got > DefaultPreparedCacheCap {
		t.Fatalf("prepared cache holds %d entries, capacity %d", got, DefaultPreparedCacheCap)
	}

	// An evicted statement still works — it is simply re-prepared.
	ctx := context.Background()
	if _, err := s.ExecSQL(ctx, "SELECT AVG(sbp) FROM sbp_data", ExecOptions{Iterations: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}
