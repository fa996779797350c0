package modeldata_test

// End-to-end acceptance of the observability layer through the public
// facade: tracing an experiment yields a Chrome-trace span tree at
// least three levels deep, the run report carries nonzero activity
// counters under chaos injection, and — the invariant everything else
// bends around — tracing and metrics never change the numbers an
// experiment produces.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modeldata"
	"modeldata/internal/engine"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// chromeTrace mirrors the JSON shape emitted by WriteChromeTrace.
type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			ID     string `json:"span.id"`
			Parent string `json:"span.parent"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// runTraced runs one experiment with tracing, stats, and deterministic
// chaos (paired with a retry budget so the run survives), returning the
// tracer and the collected stats.
func runTraced(t *testing.T, id string, workers int) (*obs.Tracer, modeldata.Stats) {
	t.Helper()
	tracer := obs.NewTracer()
	var st modeldata.Stats
	res, err := modeldata.Run(context.Background(), id,
		modeldata.WithSeed(3),
		modeldata.WithWorkers(workers),
		modeldata.WithTracer(tracer),
		modeldata.WithChaos(0.1, 17),
		modeldata.WithRetries(8),
		modeldata.WithStats(&st))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if !res.Verdict {
		t.Fatalf("%s: verdict flipped under tracing+chaos", id)
	}
	return tracer, st
}

// TestTraceDepthAndChromeExport checks the tentpole acceptance: tracing
// E1 (MCDB bundles) and E4 (MapReduce time alignment) produces a span
// tree of depth ≥ 3 whose Chrome-trace export is valid JSON with
// resolvable parent links.
func TestTraceDepthAndChromeExport(t *testing.T) {
	for _, id := range []string{"E1", "E4"} {
		tracer, _ := runTraced(t, id, 4)
		if d := tracer.MaxDepth(); d < 3 {
			t.Fatalf("%s: span tree depth %d, want ≥ 3", id, d)
		}
		spans := tracer.Snapshot()
		if len(spans) == 0 {
			t.Fatalf("%s: no spans recorded", id)
		}
		sawRoot := false
		for _, s := range spans {
			if s.Name == "experiment."+id {
				sawRoot = true
			}
			if s.End.Before(s.Start) {
				t.Fatalf("%s: span %q ends before it starts", id, s.Name)
			}
		}
		if !sawRoot {
			t.Fatalf("%s: no experiment root span", id)
		}

		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tracer.WriteChromeTraceFile(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tr chromeTrace
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("%s: trace is not valid JSON: %v", id, err)
		}
		if len(tr.TraceEvents) != len(spans) {
			t.Fatalf("%s: %d trace events for %d spans", id, len(tr.TraceEvents), len(spans))
		}
		ids := make(map[string]bool, len(tr.TraceEvents))
		for _, ev := range tr.TraceEvents {
			if ev.Ph != "X" {
				t.Fatalf("%s: event %q has phase %q, want complete (X)", id, ev.Name, ev.Ph)
			}
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("%s: event %q has negative ts/dur", id, ev.Name)
			}
			ids[ev.Args.ID] = true
		}
		for _, ev := range tr.TraceEvents {
			if ev.Args.Parent != "0" && !ids[ev.Args.Parent] {
				t.Fatalf("%s: event %q has dangling parent %s", id, ev.Name, ev.Args.Parent)
			}
		}
	}
}

// TestRunReportNonzeroUnderChaos checks the run-report acceptance: a
// chaotic E1 shows retry activity and MCDB columnar queries, a chaotic
// E4 shows shuffle traffic, and the rendered report names every counter
// exactly once.
func TestRunReportNonzeroUnderChaos(t *testing.T) {
	_, st1 := runTraced(t, "E1", 4)
	c1 := st1.Metrics.Counters
	if c1[parallel.MetricRetries] == 0 || c1[parallel.MetricAttempts] == 0 {
		t.Fatalf("E1 chaos run recorded no retry activity:\n%s", st1.Report())
	}
	if c1[parallel.MetricBackoffNanos] <= 0 {
		t.Fatalf("E1 retries without backoff:\n%s", st1.Report())
	}
	if c1[engine.MetricColQueries] == 0 {
		t.Fatalf("E1 recorded no columnar engine activity:\n%s", st1.Report())
	}
	_, st4 := runTraced(t, "E4", 4)
	if st4.Metrics.Counters[parallel.MetricShuffleBytes] == 0 {
		t.Fatalf("E4 recorded no shuffle bytes:\n%s", st4.Report())
	}
	report := st4.Report()
	if !strings.Contains(report, "iterations/s") {
		t.Fatalf("run report lacks the iteration rate:\n%s", report)
	}
	words := map[string]int{}
	for _, w := range strings.Fields(report) {
		words[w]++
	}
	for name := range st4.Metrics.Counters {
		if words[name] != 1 {
			t.Errorf("run report names %q %d times, want once", name, words[name])
		}
	}
	if t.Failed() {
		t.Logf("report:\n%s", report)
	}
}

// timingRow reports whether a result row carries wall-clock-derived
// values (E1's measured wall times and their speedup ratio), which are
// legitimately run-to-run variable and excluded from bit-exact
// comparison — exactly as EXPERIMENTS.md treats them.
func timingRow(r modeldata.Row) bool {
	return r.Unit == "s" || r.Unit == "×"
}

// TestRunDeterministicUnderTracing is the guardrail: verdicts and every
// non-timing number are bit-identical with and without tracing, at
// workers 1, 2, and 8.
func TestRunDeterministicUnderTracing(t *testing.T) {
	for _, id := range []string{"E1", "E4"} {
		clean, err := modeldata.Run(context.Background(), id, modeldata.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			tracer := obs.NewTracer()
			var st modeldata.Stats
			res, err := modeldata.Run(context.Background(), id,
				modeldata.WithSeed(3),
				modeldata.WithWorkers(w),
				modeldata.WithTracer(tracer),
				modeldata.WithStats(&st))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, w, err)
			}
			if res.Verdict != clean.Verdict || len(res.Rows) != len(clean.Rows) {
				t.Fatalf("%s workers=%d: shape changed under tracing", id, w)
			}
			for i := range res.Rows {
				if timingRow(clean.Rows[i]) {
					continue
				}
				if res.Rows[i] != clean.Rows[i] {
					t.Fatalf("%s workers=%d row %d: %+v vs %+v", id, w, i, res.Rows[i], clean.Rows[i])
				}
			}
			if len(tracer.Snapshot()) == 0 {
				t.Fatalf("%s workers=%d: tracer saw no spans", id, w)
			}
		}
	}
}
