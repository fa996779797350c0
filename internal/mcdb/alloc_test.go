package mcdb_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
)

// TestSamplingAllocatesPerTupleNotPerIteration is the allocation budget
// of the bundle sampling loop: realizing SBPDatabase(50) costs the same
// number of allocations at 100 and at 1000 iterations, because one VG
// Draw fills all of a tuple's iterations and, under the default
// OutputRow, no row is assembled past the first realization. A spec with a
// custom OutputRow is the documented exception: that hook returns a row
// per draw, so the route pays one allocation per tuple-iteration.
func TestSamplingAllocatesPerTupleNotPerIteration(t *testing.T) {
	const patients = 50
	db, err := experiments.SBPDatabase(patients)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := db.Spec("sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	custom := *spec
	custom.OutputRow = func(outer engine.Row, vgOut []engine.Value) engine.Row {
		return engine.Row{outer[0], outer[1], vgOut[0]}
	}
	customDB := mcdb.New(db.Base)
	if err := customDB.AddSpec(&custom); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	allocs := func(db *mcdb.DB, iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := db.InstantiateBundledCtx(ctx, iters, 3, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The runtime's own odd allocation moves a count by one or two, so
	// "the same" is: not even one more allocation per tuple for 900 more
	// iterations of each.
	if at100, at1000 := allocs(db, 100), allocs(db, 1000); math.Abs(at1000-at100) >= patients {
		t.Fatalf("default OutputRow: %v allocations at 100 iterations, %v at 1000; the sampling loop allocates per tuple-iteration", at100, at1000)
	}
	if got, want := allocs(customDB, 1000)-allocs(customDB, 100), float64(patients*900); math.Abs(got-want) >= patients {
		t.Fatalf("custom OutputRow: %v more allocations at 1000 iterations than at 100, want %v (one row per draw)", got, want)
	}
}

// TestInstanceAllocsPerIterationNotPerTuple is the allocation budget of
// the per-instance executor: with the default OutputRow one iteration —
// clone the base tables, realize the spec into its slab, aggregate —
// allocates the same number of objects over 50 outer rows and over
// 5000, because a clone shares rows, a realization is two slices and
// every draw lands in one reused buffer.
func TestInstanceAllocsPerIterationNotPerTuple(t *testing.T) {
	ctx := context.Background()
	perIteration := func(patients int) float64 {
		db, err := experiments.SBPDatabase(patients)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := db.Spec("sbp_data")
		if err != nil {
			t.Fatal(err)
		}
		flatSpec := *spec
		flatSpec.UncertainCols = nil // executes per instance
		flat := mcdb.New(db.Base)
		if err := flat.AddSpec(&flatSpec); err != nil {
			t.Fatal(err)
		}
		sess := flat.NewSession()
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(3, func() {
				_, err := sess.Exec(ctx, mcdb.AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg},
					mcdb.ExecOptions{Iterations: iters, Seed: 3, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		return (allocs(12) - allocs(2)) / 10
	}
	if small, large := perIteration(50), perIteration(5000); math.Abs(large-small) >= 8 {
		t.Fatalf("%v allocations per iteration over 50 outer rows, %v over 5000; the executor allocates per tuple", small, large)
	}
}

// TestPlanOnceAllocsPerIterationNotPerTuple is the allocation budget of
// the plan-once SQL executor: with the default OutputRow one more
// iteration — draw the uncertain column into one vector, gather it
// through the finished join, aggregate — allocates the same number of
// objects over 100 outer rows and over 1000, because every draw lands in
// one reused buffer and one scratch row.
func TestPlanOnceAllocsPerIterationNotPerTuple(t *testing.T) {
	ctx := context.Background()
	const sql = "SELECT AVG(sbp_data.sbp) FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid WHERE sbp_data.sbp > 110"
	perIteration := func(patients int) float64 {
		db, err := experiments.SBPDatabase(patients)
		if err != nil {
			t.Fatal(err)
		}
		sess := db.NewSession()
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := sess.ExecSQL(ctx, sql, mcdb.ExecOptions{Iterations: iters, Seed: 3, Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		return (allocs(12) - allocs(2)) / 10
	}
	if small, large := perIteration(100), perIteration(1000); math.Abs(large-small) >= 8 {
		t.Fatalf("%v allocations per iteration over 100 outer rows, %v over 1000; the executor allocates per tuple", small, large)
	}
}

// TestWhatIfAllocatesPerWindowNotPerRun is the byte budget of a sharded
// what-if: over a cached realization, ExecDeltaRange keeps the mapped
// values of its window only, so its bytes grow with hi − lo — by about
// those values, 8 B per affected tuple per window iteration — and
// barely with Iterations: the full-run dirtiness test costs one flag
// byte per iteration, where copying the affected tuples' runs would
// cost 8 B per affected tuple per iteration.
func TestWhatIfAllocatesPerWindowNotPerRun(t *testing.T) {
	const patients = 200
	db, err := experiments.SBPDatabase(patients)
	if err != nil {
		t.Fatal(err)
	}
	q := mcdb.AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg}
	d := mcdb.Delta{Table: "sbp_data",
		Where:  func(det engine.Row) bool { return det[1].AsString() == "M" },
		MapUnc: func(_ engine.Row, unc []float64) { unc[0] *= 0.9 }}
	const affected = patients / 2
	ctx := context.Background()
	sess := db.NewSession()
	bytes := func(iters, hi int) float64 {
		opts := mcdb.ExecOptions{Iterations: iters, Seed: 5, Workers: 1}
		whatIf := func() {
			if _, err := sess.ExecDeltaRange(ctx, q, opts, d, 0, hi); err != nil {
				t.Fatal(err)
			}
		}
		whatIf() // realizes the bundle into the session's cache
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			whatIf()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	base := bytes(1000, 100)
	if perRunIter := (bytes(8000, 100) - base) / 7000; perRunIter > 2 {
		t.Errorf("%.1f more bytes per what-if per extra iteration of the run, want at most 2 (a dirty flag)", perRunIter)
	}
	if perWinIter := (bytes(1000, 800) - base) / 700; perWinIter < 4*affected {
		t.Errorf("%.1f more bytes per what-if per extra iteration of the window, want about %d (the affected tuples' mapped values)", perWinIter, 8*affected)
	}
}
