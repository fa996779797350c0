// Command benchjson runs the engine operator micro-benchmarks (via
// internal/enginebench), the query-planner benchmarks
// (planner-off written join order vs planner-on cost-based order),
// the out-of-core storage benchmarks (zone-map-pruned scans and
// spill-to-disk joins/group-bys over 10⁷-row colstore segments), plus
// representative E-experiment end-to-end runs, and records ns/op,
// bytes/op, and allocs/op as JSON — the repository's perf trajectory
// file (BENCH_9.json). A non-blocking CI job runs the same workloads
// once as a smoke check.
//
// Timing comes from testing.Benchmark, so numbers are directly
// comparable with `go test -bench -benchmem ./internal/engine/`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modeldata/internal/enginebench"
	"modeldata/internal/experiments"
	"modeldata/internal/obs"
)

// measurement is one recorded benchmark.
type measurement struct {
	Name        string  `json:"name"`
	Op          string  `json:"op,omitempty"`
	Rows        int     `json:"rows,omitempty"`
	Variant     string  `json:"variant,omitempty"` // "off"/"on" for planner, "base"/"opt" for out-of-core
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// plannerSpeedup pairs the planner-off and planner-on timings of one
// join-heavy query.
type plannerSpeedup struct {
	Op      string  `json:"op"`
	Rows    int     `json:"rows"`
	OffNs   float64 `json:"off_ns_per_op"`
	OnNs    float64 `json:"on_ns_per_op"`
	Speedup float64 `json:"speedup"` // offNs / onNs
}

// oocSpeedup pairs the unoptimized and optimized timings of one
// out-of-core workload: full decode vs zone-map-pruned scan, or
// unlimited-memory hash vs budgeted Grace spill.
type oocSpeedup struct {
	Op      string  `json:"op"`
	Rows    int     `json:"rows"`
	BaseNs  float64 `json:"base_ns_per_op"`
	OptNs   float64 `json:"opt_ns_per_op"`
	Speedup float64 `json:"speedup"` // baseNs / optNs
}

type report struct {
	Benchmarks []measurement    `json:"benchmarks"`
	Planner    []plannerSpeedup `json:"planner"`
	OutOfCore  []oocSpeedup     `json:"out_of_core,omitempty"`
	WhatIf     []deltaSpeedup   `json:"whatif,omitempty"`
	// Metrics holds the colstore.* counters accumulated across the
	// out-of-core runs (CI asserts pruning and spilling actually fired)
	// and the mcdb.delta_* counters of the what-if runs (CI asserts
	// clean iterations were actually skipped).
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

func measure(name, op string, rows int, variant string, fn func()) measurement {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	return measurement{
		Name:        name,
		Op:          op,
		Rows:        rows,
		Variant:     variant,
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func main() {
	out := flag.String("o", "BENCH_9.json", "output path for the JSON report")
	seed := flag.Uint64("seed", 1, "seed for the E-experiment runs")
	skipExperiments := flag.Bool("engine-only", false, "skip the E-experiment end-to-end benchmarks")
	oocRows := flag.Int("ooc-rows", enginebench.OOCDefaultRows, "row count for the out-of-core benchmarks (0 skips them)")
	oocOnly := flag.Bool("ooc-only", false, "run only the out-of-core benchmarks (CI smoke)")
	whatIfOnly := flag.Bool("whatif-only", false, "run only the what-if delta benchmarks (CI smoke, writes BENCH_10.json)")
	flag.Parse()

	var rep report
	if !*oocOnly && !*whatIfOnly {
		runCoreBenchmarks(&rep, *seed, *skipExperiments)
	}
	if !*whatIfOnly && *oocRows > 0 {
		if err := runOutOfCore(&rep, *oocRows); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: out-of-core: %v\n", err)
			os.Exit(1)
		}
	}
	if !*oocOnly {
		if err := runWhatIf(&rep, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: what-if: %v\n", err)
			os.Exit(1)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func runCoreBenchmarks(rep *report, seed uint64, skipExperiments bool) {
	for _, w := range enginebench.Workloads() {
		m := measure("BenchmarkEngine"+w.Op+"/rows="+fmt.Sprint(w.Rows), w.Op, w.Rows, "", w.Run)
		rep.Benchmarks = append(rep.Benchmarks, m)
		fmt.Fprintf(os.Stderr, "%-9s rows=%-7d %10.0f ns/op  %.1f Mrows/s\n",
			w.Op, w.Rows, m.NsPerOp, float64(w.Rows)*1e3/m.NsPerOp)
	}

	for _, w := range enginebench.PlannerWorkloads() {
		base := "BenchmarkPlanner" + w.Op + "/rows=" + fmt.Sprint(w.Rows)
		mo := measure(base+"/off", w.Op, w.Rows, "off", w.Off)
		mn := measure(base+"/on", w.Op, w.Rows, "on", w.On)
		rep.Benchmarks = append(rep.Benchmarks, mo, mn)
		rep.Planner = append(rep.Planner, plannerSpeedup{
			Op: w.Op, Rows: w.Rows,
			OffNs: mo.NsPerOp, OnNs: mn.NsPerOp,
			Speedup: mo.NsPerOp / mn.NsPerOp,
		})
		fmt.Fprintf(os.Stderr, "%-13s rows=%-7d %10.0f ns/op (off) %10.0f ns/op (on)   %.1fx\n",
			w.Op, w.Rows, mo.NsPerOp, mn.NsPerOp, mo.NsPerOp/mn.NsPerOp)
	}

	if !skipExperiments {
		for _, id := range []string{"E1", "E7"} {
			id := id
			m := measure("BenchmarkExperiment"+id, "", 0, "", func() {
				if _, err := experiments.Run(context.Background(), id, seed); err != nil {
					fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", id, err)
					os.Exit(1)
				}
			})
			rep.Benchmarks = append(rep.Benchmarks, m)
			fmt.Fprintf(os.Stderr, "%-9s %27.0f ns/op\n", id, m.NsPerOp)
		}
	}
}

// runOutOfCore writes an n-row segment directory to a temp dir, runs
// the pruned-scan and spill workload pairs, and records the colstore
// counters so the report proves pruning and spilling happened.
func runOutOfCore(rep *report, rows int) error {
	dir, err := os.MkdirTemp("", "benchooc-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	segDir := filepath.Join(dir, "segs")
	fmt.Fprintf(os.Stderr, "building %d-row segment store under %s ...\n", rows, segDir)
	if err := enginebench.BuildOOCStore(segDir, rows, 0); err != nil {
		return err
	}
	workloads, err := enginebench.OOCWorkloads(segDir, rows, 1<<20, filepath.Join(dir, "spill"))
	if err != nil {
		return err
	}
	before := obs.Default().Snapshot()
	for _, w := range workloads {
		base := "BenchmarkOOC" + w.Op + "/rows=" + fmt.Sprint(w.Rows)
		mb := measure(base+"/base", w.Op, w.Rows, "base", w.Base)
		mo := measure(base+"/opt", w.Op, w.Rows, "opt", w.Opt)
		rep.Benchmarks = append(rep.Benchmarks, mb, mo)
		rep.OutOfCore = append(rep.OutOfCore, oocSpeedup{
			Op: w.Op, Rows: w.Rows,
			BaseNs: mb.NsPerOp, OptNs: mo.NsPerOp,
			Speedup: mb.NsPerOp / mo.NsPerOp,
		})
		fmt.Fprintf(os.Stderr, "%-13s rows=%-9d %12.0f ns/op (base) %12.0f ns/op (opt)  %.1fx\n",
			w.Op, w.Rows, mb.NsPerOp, mo.NsPerOp, mb.NsPerOp/mo.NsPerOp)
	}
	delta := obs.Default().Snapshot().Sub(before)
	rep.Metrics = map[string]int64{}
	for name, v := range delta.Counters {
		if strings.HasPrefix(name, "colstore.") {
			rep.Metrics[name] = v
		}
	}
	if rep.Metrics["colstore.blocks_pruned"] == 0 {
		return fmt.Errorf("zone maps pruned nothing (colstore.blocks_pruned = 0)")
	}
	if rep.Metrics["colstore.spill_partitions"] == 0 {
		return fmt.Errorf("no spill happened (colstore.spill_partitions = 0)")
	}
	return nil
}
