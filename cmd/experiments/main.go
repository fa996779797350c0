// Command experiments regenerates every figure and quantitative claim
// of the paper and prints paper-vs-measured reports (the source of
// EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-run F1,E3] [-seed 20140622] [-workers 8] [-md] [-stats]
//	            [-retries 2] [-chaos 0.05] [-trace out.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With no -run flag every registered experiment runs. -md emits a
// Markdown table suitable for EXPERIMENTS.md; -workers bounds the
// parallelism of every Monte Carlo loop (results are identical at any
// worker count); -stats prints a per-experiment run report (elapsed
// time, iteration throughput, then every counter of the run once).
// -retries grants every runtime task a retry budget; -chaos injects
// deterministic task panics with the given probability (pair it with
// -retries to exercise the recovery path). Neither changes the numbers
// produced. -trace writes the span tree of all executed
// experiments as a Chrome trace-event JSON file (load it in
// chrome://tracing or https://ui.perfetto.dev); -cpuprofile and
// -memprofile write standard pprof profiles. Interrupting the process
// (Ctrl-C) cancels the running experiment promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"

	"modeldata"
	"modeldata/internal/experiments"
	"modeldata/internal/obs"
)

func main() {
	os.Exit(realMain())
}

// realMain holds the program body so that deferred writers (trace dump,
// profiles) run before the process exits with a status code.
func realMain() int {
	runList := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := flag.Uint64("seed", modeldata.DefaultSeed, "master random seed")
	workers := flag.Int("workers", 0, "worker bound for parallel loops (0 = GOMAXPROCS)")
	md := flag.Bool("md", false, "emit a Markdown report")
	stats := flag.Bool("stats", false, "print per-experiment iteration, shuffle, and fault-tolerance counters")
	retries := flag.Int("retries", 0, "per-task retry budget for runtime fault tolerance")
	chaos := flag.Float64("chaos", 0, "deterministic task-panic probability for fault injection (0 = off; pair with -retries)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON span dump to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	list := flag.Bool("list", false, "list registered experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, id := range modeldata.ExperimentIDs() {
			fmt.Println(id)
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuProfile != "" {
		stopProf, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
		defer func() {
			if err := tracer.WriteChromeTraceFile(*tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				return
			}
			snap := tracer.Snapshot()
			fmt.Fprintf(os.Stderr, "trace: %d spans (max depth %d) written to %s\n",
				len(snap), tracer.MaxDepth(), *tracePath)
		}()
	}

	ids := modeldata.ExperimentIDs()
	if *runList != "" {
		ids = strings.Split(*runList, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	failures := 0
	if *md {
		fmt.Println("| ID | Title | Verdict | Key numbers |")
		fmt.Println("|---|---|---|---|")
	}
	for _, id := range ids {
		var st modeldata.Stats
		opts := []modeldata.Option{
			modeldata.WithSeed(*seed),
			modeldata.WithWorkers(*workers),
			modeldata.WithRetries(*retries),
			modeldata.WithStats(&st),
		}
		if *chaos > 0 {
			opts = append(opts, modeldata.WithChaos(*chaos, *seed))
		}
		if tracer != nil {
			opts = append(opts, modeldata.WithTracer(tracer))
		}
		res, err := modeldata.Run(ctx, id, opts...)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted")
			return 130
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			failures++
			continue
		}
		if !res.Verdict {
			failures++
		}
		if *md {
			printMarkdown(res)
		} else {
			fmt.Println(res)
			printSeries(res)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "[%s] %s", res.ID, st.Report())
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed to reproduce\n", failures)
		return 1
	}
	return 0
}

func printMarkdown(res experiments.Result) {
	verdict := "✅ reproduced"
	if !res.Verdict {
		verdict = "❌ mismatch"
	}
	var keys []string
	max := 4
	if len(res.Rows) < max {
		max = len(res.Rows)
	}
	for _, row := range res.Rows[:max] {
		keys = append(keys, fmt.Sprintf("%s = %.5g %s", row.Name, row.Value, row.Unit))
	}
	fmt.Printf("| %s | %s | %s | %s |\n", res.ID, res.Title, verdict, strings.Join(keys, "; "))
}

// printSeries renders any attached numeric series as unicode
// sparklines (F1's actual-vs-extrapolated trajectories).
func printSeries(res experiments.Result) {
	if len(res.Series) == 0 {
		return
	}
	labels := make([]string, 0, len(res.Series))
	for label := range res.Series {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, label := range labels {
		for _, v := range res.Series[label] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if !(hi > lo) {
		return
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	for _, label := range labels {
		var b strings.Builder
		for _, v := range res.Series[label] {
			idx := int((v - lo) / (hi - lo) * float64(len(bars)-1))
			b.WriteRune(bars[idx])
		}
		fmt.Printf("  %-14s %s\n", label, b.String())
	}
	fmt.Println()
}
