package main

// The what-if delta workload: one expensive stochastic table, one
// declarative change, and the two ways to answer the changed query —
// re-realizing the whole table from scratch (a cold session over the
// changed database) versus lineage-driven delta re-realization over a
// warm session (mcdb.Session.ExecDelta). The recorded counters prove
// the delta path actually skipped clean iterations; benchjson exits
// non-zero when mcdb.delta_iters_skipped is zero, so the speedup
// number can never come from a run that silently recomputed
// everything.

import (
	"context"
	"fmt"
	"math"
	"os"

	"modeldata/internal/engine"
	"modeldata/internal/mcdb"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// deltaSpeedup pairs the from-scratch and delta timings of one
// what-if query.
type deltaSpeedup struct {
	Op      string  `json:"op"`
	Tuples  int     `json:"tuples"`
	Iters   int     `json:"iters"`
	FullNs  float64 `json:"full_ns_per_op"`
	DeltaNs float64 `json:"delta_ns_per_op"`
	Speedup float64 `json:"speedup"` // fullNs / deltaNs
}

const (
	whatIfTuples = 200
	whatIfIters  = 100
	// whatIfVGWork is the per-sample VG cost (inner draws), standing in
	// for the aggregation-query-parametrized VG functions of the E1
	// fixture — expensive enough that re-realization dominates.
	whatIfVGWork = 500
)

// whatIfDB builds the sensor fixture. limit, when positive, composes the
// what-if transform into the VG itself — the from-scratch baseline's
// way of answering the changed query.
func whatIfDB(capRegion int64, limit float64) (*mcdb.DB, error) {
	base := engine.NewDatabase()
	sensors := engine.MustNewTable("sensors", engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "region", Type: engine.TypeInt},
		{Name: "base", Type: engine.TypeFloat},
	})
	for i := 0; i < whatIfTuples; i++ {
		sensors.MustInsert(engine.Int(int64(i)), engine.Int(int64(i%4)),
			engine.Float(50+float64(i%11)))
	}
	base.Put(sensors)
	db := mcdb.New(base)
	err := db.AddSpec(&mcdb.TableSpec{
		Name: "readings",
		Schema: engine.Schema{
			{Name: "id", Type: engine.TypeInt},
			{Name: "region", Type: engine.TypeInt},
			{Name: "base", Type: engine.TypeFloat},
			{Name: "load", Type: engine.TypeFloat},
		},
		ForEach: "sensors",
		Params: func(db *engine.Database, outer engine.Row) (engine.Row, error) {
			return outer, nil
		},
		VG: func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {
			mean := params[2].AsFloat()
			v := 0.0
			for i := 0; i < whatIfVGWork; i++ {
				v += r.Normal(mean, 4)
			}
			v /= whatIfVGWork
			if limit > 0 && params[1].AsInt() == capRegion {
				v = math.Min(v, limit)
			}
			return append(out, engine.Float(v)), nil
		},
		UncertainCols: []int{3},
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// runWhatIf measures the what-if pair and records the mcdb delta
// counters. The cap sits high enough that it binds in only some
// iterations, so a correct delta path must skip the rest — and the
// hard failure below catches a regression that dirties everything.
func runWhatIf(rep *report, seed uint64) error {
	const capRegion, limit = 0, 60.4
	q := mcdb.AggQuery{Table: "readings", Col: "load", Fn: engine.AggAvg}
	opts := mcdb.ExecOptions{Iterations: whatIfIters, Seed: seed}

	changed, err := whatIfDB(capRegion, limit)
	if err != nil {
		return err
	}
	baseDB, err := whatIfDB(0, 0)
	if err != nil {
		return err
	}
	stats := parallel.NewStats()
	ctx := parallel.WithStats(context.Background(), stats)

	// Warm session over the unchanged database: the state a server
	// holds when a what-if request arrives.
	warm := baseDB.NewSession()
	if _, err := warm.Exec(ctx, q, opts); err != nil {
		return err
	}
	d := mcdb.Delta{
		Table: "readings",
		Where: func(det engine.Row) bool { return det[1].AsInt() == capRegion },
		MapUnc: func(det engine.Row, unc []float64) {
			unc[0] = math.Min(unc[0], limit)
		},
	}
	// Bit-identity first: the delta answer must equal the from-scratch
	// answer before its timing means anything.
	want, err := changed.NewSession().Exec(ctx, q, opts)
	if err != nil {
		return err
	}
	got, err := warm.ExecDelta(ctx, q, opts, d)
	if err != nil {
		return err
	}
	for i := range want {
		if want[i] != got[i] { //lint:allow floateq bitwise identity is the delta-execution contract being asserted
			return fmt.Errorf("what-if delta diverges at iteration %d: %v != %v", i, got[i], want[i])
		}
	}

	mf := measure(fmt.Sprintf("BenchmarkWhatIf/tuples=%d/full", whatIfTuples), "WhatIf",
		whatIfTuples, "full", func() {
			// A fresh session forces full re-realization of the changed
			// table, expensive VG and all.
			if _, err := changed.NewSession().Exec(ctx, q, opts); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: whatif full: %v\n", err)
				os.Exit(1)
			}
		})
	md := measure(fmt.Sprintf("BenchmarkWhatIf/tuples=%d/delta", whatIfTuples), "WhatIf",
		whatIfTuples, "delta", func() {
			if _, err := warm.ExecDelta(ctx, q, opts, d); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: whatif delta: %v\n", err)
				os.Exit(1)
			}
		})
	rep.Benchmarks = append(rep.Benchmarks, mf, md)
	rep.WhatIf = append(rep.WhatIf, deltaSpeedup{
		Op: "AvgCapRegion", Tuples: whatIfTuples, Iters: whatIfIters,
		FullNs: mf.NsPerOp, DeltaNs: md.NsPerOp,
		Speedup: mf.NsPerOp / md.NsPerOp,
	})
	fmt.Fprintf(os.Stderr, "%-13s tuples=%-7d %12.0f ns/op (full) %12.0f ns/op (delta)  %.1fx\n",
		"WhatIf", whatIfTuples, mf.NsPerOp, md.NsPerOp, mf.NsPerOp/md.NsPerOp)

	if rep.Metrics == nil {
		rep.Metrics = map[string]int64{}
	}
	reg := stats.Registry()
	skipped := reg.Counter(mcdb.MetricDeltaItersSkipped).Value()
	rep.Metrics[mcdb.MetricDeltaItersSkipped] = skipped
	rep.Metrics[mcdb.MetricDeltaTuplesRerealized] = reg.Counter(mcdb.MetricDeltaTuplesRerealized).Value()
	if skipped == 0 {
		return fmt.Errorf("delta execution skipped nothing (%s = 0): every iteration was treated as dirty",
			mcdb.MetricDeltaItersSkipped)
	}
	return nil
}
