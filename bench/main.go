// Command bench is the repository's one benchmark: five named
// workloads over an in-process mcdbserver and the colstore-backed
// engine, measured end to end with tracing off and, in a separate
// traced pass, layer by layer from outside. README.md in this
// directory is the glossary of workload and metric names.
//
// Usage:
//
//	go run ./bench -workload NAME -seed N -seconds S -trace 0|1
//	go run ./bench -seed N [-runs K] -out FILE     every workload, K times
//	go run ./bench -compare A.json B.json          judge B against A
//
// A single-workload run prints, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics}: with -trace 0
// the end-to-end metrics of BENCHMARK.json, with -trace 1 its per-layer
// metrics. The process exits non-zero on an error or an incorrect run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase; 0 runs each workload's fixed op counts")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	smoke := fs.Bool("smoke", false, "tiny fixtures and fixed op counts (tests)")
	out := fs.String("out", "", "with -workload all: write every run's results to this JSON file")
	runs := fs.Int("runs", 1, "with -workload all: repeat the whole set this many times")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the traced pass to this file as Chrome trace JSON")
	tmp := fs.String("tmp", ".bench_build", "directory for segment stores and spill files (created, then emptied)")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	spec := fs.String("spec", "BENCHMARK.json", "with -compare: the benchmark description holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	// One core for the whole process, server and load generator
	// together: the sandbox gives it two of a shared host, and a process
	// that wants both at once is slowed by whatever else wants either
	// (run-to-run spread of 20–40 % on the closed loops, against 2–8 % on
	// one core, where the kernel can move the process to whichever core
	// is free).
	runtime.GOMAXPROCS(1)
	cfg := runConfig{seed: *seed, seconds: *seconds, sz: fullSizes, trace: *trace != 0, traceOut: *traceOut}
	if *smoke {
		cfg.sz, cfg.seconds = smokeSizes, 0
	}
	err := os.MkdirAll(*tmp, 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(*tmp, "run-*")
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.tmp = work

	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(ctx, w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		report(stderr, res)
		if err := printResult(stdout, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	var all []*result
	ok := true
	for k := 0; k < *runs; k++ {
		for _, w := range workloads {
			res, err := runWorkload(ctx, w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			report(stderr, res)
			ok = ok && res.Correct
			all = append(all, res)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, all); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func runWorkload(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	if w.gen == nil {
		return runBatch(ctx, w, cfg)
	}
	if cfg.trace {
		return traceServing(ctx, w, cfg)
	}
	return runServing(ctx, w, cfg)
}

// printResult writes the contract line: exactly correct, attempted,
// failed and metrics, each metric exactly value and unit.
func printResult(w io.Writer, res *result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding the result of %s: %w", res.Workload, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report prints every metric by name with its unit and sample count.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s seed=%d correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", name, m.Value, m.Unit, n)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
