package main

// bench -compare A.json B.json: judge result set B against A with the
// bounds BENCHMARK.json fixes, one row per (end-to-end metric,
// workload). This is the tool the A/A acceptance check and every later
// change use.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// cell is one side's runs of one (metric, workload).
type cell struct {
	vals        []float64
	med, spread float64 // spread = (Q3 − Q1) / median, 0 for a single run
}

func cellOf(rs []*result, workload, name string) cell {
	var c cell
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			c.vals = append(c.vals, m.Value)
		}
	}
	if len(c.vals) == 0 {
		return c
	}
	c.med = median(c.vals)
	if len(c.vals) > 1 && c.med > 0 {
		q1, q3 := quartiles(c.vals)
		c.spread = (q3 - q1) / c.med
	}
	return c
}

// Verdicts of one cell.
const (
	verdictOK         = "ok"         // B's median is within the bound of A's
	verdictBetter     = "better"     // every run of B reads better than every run of A
	verdictUnresolved = "unresolved" // within the bound, but the runs spread wider than the bound
	verdictRegressed  = "REGRESSED"  // B's median is worse than A's by more than the bound
	verdictMissing    = "MISSING"    // a side did not report the cell
)

// judge compares one cell. worse is B's relative change in the bad
// direction (negative when B is better).
func judge(a, b cell, higherBetter bool, bound float64) (verdict string, worse float64) {
	if len(a.vals) == 0 || len(b.vals) == 0 {
		return verdictMissing, 0
	}
	worse = (b.med - a.med) / a.med
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return verdictRegressed, worse
	}
	allBetter := true
	for _, x := range a.vals {
		for _, y := range b.vals {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return verdictBetter, worse
	case a.spread > bound || b.spread > bound:
		return verdictUnresolved, worse
	}
	return verdictOK, worse
}

// compareFiles prints the table and returns the exit code: 1 when a
// cell regressed or is missing, else 0.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var a, b []*result
	for _, in := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA spread\tB median\tB spread\tworse by\tbound\tverdict\t")
	counts := map[string]int{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ca, cb := cellOf(a, w.Name, m.Name), cellOf(b, w.Name, m.Name)
			verdict, worse := judge(ca, cb, m.Better == "higher", m.Bound)
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.1f%%\t%.4f\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
				w.Name, m.Name, m.Unit, ca.med, 100*ca.spread, cb.med, 100*cb.spread, 100*worse, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%d ok, %d better, %d unresolved, %d regressed, %d missing (A: %d runs, B: %d runs)\n",
		counts[verdictOK], counts[verdictBetter], counts[verdictUnresolved], counts[verdictRegressed],
		counts[verdictMissing], len(a), len(b))
	if counts[verdictRegressed]+counts[verdictMissing] > 0 {
		return 1
	}
	return 0
}
