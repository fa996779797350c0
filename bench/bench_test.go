package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// spec is BENCHMARK.json as the tests need it.
type testSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) testSpec {
	t.Helper()
	var s testSpec
	if err := readJSON("../BENCHMARK.json", &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeConfig(t *testing.T, seed uint64, trace bool) runConfig {
	return runConfig{seed: seed, sz: smokeSizes, trace: trace, tmp: t.TempDir()}
}

// Same seed, same schedule — arrival offsets, tenants, kinds, bodies;
// another seed, another schedule.
func TestScheduleFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		if w.gen == nil {
			continue
		}
		a := w.gen(7, smokeSizes, smokeSizes.openSeconds).hash()
		b := w.gen(7, smokeSizes, smokeSizes.openSeconds).hash()
		c := w.gen(8, smokeSizes, smokeSizes.openSeconds).hash()
		if a != b {
			t.Errorf("%s: seed 7 gave schedules %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %x", w.name, a)
		}
	}
}

// The open-loop mix is the designed one, not a draw around it.
func TestOpenMixIsStratified(t *testing.T) {
	sz := fullSizes
	p := genOpen(3, sz, 10)
	if got, want := len(p.order), 2150; got != want {
		t.Fatalf("%d arrivals in 10 s, want %d", got, want)
	}
	kinds := map[string]int{}
	for _, idx := range p.order[:1000] {
		kinds[p.pool[idx].kind]++
	}
	for i, k := range openKinds {
		if got, want := kinds[k], 10*openKindCount[i]; got != want {
			t.Errorf("%d %s requests in the first 1000, want %d", got, k, want)
		}
	}
	for i := 1; i < len(p.due); i++ {
		if p.due[i] < p.due[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

// exactCounts are the layer metrics that are counts of what the program
// did, not timings: on a closed loop they must repeat exactly.
var exactCounts = []string{
	"server.cache.hit_ratio", "server.cache.evictions", "server.admitted", "server.rejected",
	"mcdb.realize_dup_ratio", "mcdb.realize_cache_hit_ratio", "mcdb.delta_skip_ratio",
	"engine.plan_cache_hit_ratio", "engine.colfallback",
	"colstore.prune_ratio", "colstore.spill_partitions", "colstore.spill_bytes_per_row",
	"colstore.spill_fallbacks", "colstore.disk_bytes_per_row",
}

// A smoke run of every workload is correct, reports exactly the metrics
// BENCHMARK.json lists with their units, all finite; and the exact
// counts repeat across two traced runs of the closed loops.
func TestSmokeRunsReportTheCatalogue(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	ctx := context.Background()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, spec.Workloads[i].Name, w.name)
		}
		plain, err := runWorkload(ctx, w, smokeConfig(t, 5, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, plain, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if plain.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, plain.Metrics[m.Name].Value)
			}
		}

		traced, err := runWorkload(ctx, w, smokeConfig(t, 5, true))
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkResult(t, traced, spec.PerLayer)
		if w.open {
			continue
		}
		again, err := runWorkload(ctx, w, smokeConfig(t, 5, true))
		if err != nil {
			t.Fatalf("%s traced again: %v", w.name, err)
		}
		for _, name := range exactCounts {
			if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %v, then %v; a count must repeat exactly", w.name, name, a, b)
			}
		}
	}
}

func checkResult(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not reported", res.Workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s in %q, BENCHMARK.json says %q", res.Workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, m.Name, got.Value)
		}
	}
}

// What the layers should show on the workloads built to show it.
func TestLayerSignatures(t *testing.T) {
	ctx := context.Background()
	run := func(name string) map[string]metric {
		w, _ := findWorkload(name)
		res, err := runWorkload(ctx, w, smokeConfig(t, 9, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.Metrics
	}
	cached := run("serve_cached")
	if v := cached["server.cache.hit_ratio"].Value; v != 1 {
		t.Errorf("serve_cached hit ratio %v, want 1", v)
	}
	for _, idle := range []string{"mcdb.estimate_ms", "mcdb.instantiate_bundled_ms", "engine.sql_scalar_ms", "colstore.decode_ns_per_row"} {
		if v := cached[idle].Value; v != 0 {
			t.Errorf("serve_cached %s = %v; the layer should be idle", idle, v)
		}
	}
	explore := run("serve_explore")
	if v := explore["server.cache.hit_ratio"].Value; v != 0 {
		t.Errorf("serve_explore hit ratio %v, want 0", v)
	}
	if v := explore["mcdb.realize_dup_ratio"].Value; v != 2 {
		t.Errorf("serve_explore realizes each bundle %v times, want once per shard (2)", v)
	}
	if v := explore["mcdb.delta_skip_ratio"].Value; v != 0.5 {
		t.Errorf("serve_explore skips %v of what-if iterations, want 0.5", v)
	}
	for _, busy := range []string{"mcdb.estimate_ms", "mcdb.instantiate_bundled_ms", "mcdb.exec_delta_ms", "server.query_miss_us"} {
		if explore[busy].Value <= 0 {
			t.Errorf("serve_explore %s = %v, want a timing", busy, explore[busy].Value)
		}
	}
}

func TestJudge(t *testing.T) {
	mk := func(vals ...float64) cell {
		rs := make([]*result, len(vals))
		for i, v := range vals {
			rs[i] = &result{Workload: "w", Metrics: map[string]metric{"m": {Value: v}}}
		}
		return cellOf(rs, "w", "m")
	}
	for _, tc := range []struct {
		name   string
		a, b   cell
		higher bool
		want   string
	}{
		{"within the bound", mk(100, 101, 102), mk(103, 104, 105), false, verdictOK},
		{"slower past the bound", mk(100, 101, 102), mk(120, 121, 122), false, verdictRegressed},
		{"throughput down past the bound", mk(100, 101, 102), mk(80, 81, 82), true, verdictRegressed},
		{"throughput up", mk(100, 101, 102), mk(120, 121, 122), true, verdictBetter},
		{"too noisy to say unchanged", mk(80, 100, 130, 95), mk(90, 101, 125, 85), false, verdictUnresolved},
		{"one side silent", mk(100), cell{}, false, verdictMissing},
	} {
		if got, _ := judge(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// The contract line has exactly four keys, and each metric exactly two.
func TestResultLine(t *testing.T) {
	res := &result{Workload: "w", Correct: true, Attempted: 3, Metrics: map[string]metric{"m": {Value: 1.5, Unit: "ms", N: 9}}}
	var buf bytes.Buffer
	if err := printResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("line has keys %v", line)
	}
	if got := strings.TrimSpace(string(line["metrics"])); got != `{"m":{"value":1.5,"unit":"ms"}}` {
		t.Errorf("metrics = %s", got)
	}
}

// Chunks cover the ops once, in whole units, none shorter than asked.
func TestChunks(t *testing.T) {
	for _, tc := range []struct{ n, unit, min, want, size int }{
		{70000, 1, 10, 50, 1400},
		{70000, 1, 1000, 50, 1400},
		{364, 13, 10, 28, 13},
		{364, 13, 200, 1, 364},
		{98, 1, 10, 9, 10},
		{5, 1, 10, 1, 5},
	} {
		cs := chunks(tc.n, tc.unit, tc.min)
		if len(cs) != tc.want || cs[0][1]-cs[0][0] != tc.size {
			t.Errorf("chunks(%d, %d, %d): %d chunks, the first of %d ops; want %d of %d",
				tc.n, tc.unit, tc.min, len(cs), cs[0][1]-cs[0][0], tc.want, tc.size)
		}
		at := 0
		for _, c := range cs {
			if c[0] != at || c[1] <= c[0] {
				t.Fatalf("chunks(%d, %d, %d) = %v", tc.n, tc.unit, tc.min, cs)
			}
			at = c[1]
		}
		if at != tc.n {
			t.Errorf("chunks(%d, %d, %d) end at %d", tc.n, tc.unit, tc.min, at)
		}
	}
}
