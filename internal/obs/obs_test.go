package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// epoch is an arbitrary fixed instant for deterministic clocks.
var epoch = time.Date(2014, 6, 22, 0, 0, 0, 0, time.UTC)

func TestManualClock(t *testing.T) {
	c := NewManualClock(epoch)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("Now = %v, want %v", got, epoch)
	}
	c.Advance(3 * time.Second)
	if got := c.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("after Advance: Now = %v", got)
	}
	c.Set(epoch)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("after Set: Now = %v", got)
	}
}

func TestSpanTreeAndDepth(t *testing.T) {
	mc := NewManualClock(epoch)
	tr := NewTracerClock(mc)
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := Start(ctx, "run")
	mc.Advance(time.Millisecond)
	ctx2, mid := Start(ctx1, "experiment")
	mc.Advance(time.Millisecond)
	_, leaf := Start(ctx2, "loop")
	leaf.SetInt("n", 42)
	mc.Advance(time.Millisecond)
	leaf.End()
	mid.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Parent != 0 || spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Fatalf("bad parent chain: %+v", spans)
	}
	if d := tr.MaxDepth(); d != 3 {
		t.Fatalf("MaxDepth = %d, want 3", d)
	}
	if got := spans[2].Duration(); got != time.Millisecond {
		t.Fatalf("leaf duration = %v, want 1ms", got)
	}
	if len(spans[2].Attrs) != 1 || spans[2].Attrs[0] != (Attr{Key: "n", Value: "42"}) {
		t.Fatalf("leaf attrs = %+v", spans[2].Attrs)
	}
	// Sibling under the root: parented to root, not to the ended leaf.
	_, sib := Start(ctx1, "sibling")
	sib.End()
	spans = tr.Snapshot()
	if spans[3].Parent != spans[0].ID {
		t.Fatalf("sibling parent = %d, want root %d", spans[3].Parent, spans[0].ID)
	}
}

func TestStartWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "nothing")
	if sp != nil {
		t.Fatalf("Start without tracer returned a span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without tracer changed the context")
	}
	if Enabled(ctx) {
		t.Fatalf("Enabled = true without tracer")
	}
	// All span methods are nil-safe.
	sp.End()
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
}

func TestSpanEndIdempotent(t *testing.T) {
	mc := NewManualClock(epoch)
	tr := NewTracerClock(mc)
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "op")
	mc.Advance(time.Second)
	sp.End()
	mc.Advance(time.Hour)
	sp.End() // must not move the end time
	if d := tr.Snapshot()[0].Duration(); d != time.Second {
		t.Fatalf("duration after double End = %v, want 1s", d)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := Start(ctx, "child")
			sp.SetInt("i", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	spans := tr.Snapshot()
	if len(spans) != 33 {
		t.Fatalf("got %d spans, want 33", len(spans))
	}
	seen := map[uint64]bool{}
	for _, sp := range spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		seen[sp.ID] = true
		if sp.Name == "child" && sp.Parent != spans[0].ID {
			t.Fatalf("child parent = %d, want %d", sp.Parent, spans[0].ID)
		}
	}
}

func TestChromeTraceOutput(t *testing.T) {
	mc := NewManualClock(epoch)
	tr := NewTracerClock(mc)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "run")
	mc.Advance(2 * time.Millisecond)
	_, child := Start(ctx, "stage")
	child.SetAttr("kind", "map")
	mc.Advance(time.Millisecond)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	run, stage := doc.TraceEvents[0], doc.TraceEvents[1]
	if run.Name != "run" || run.Ph != "X" || run.Ts != 0 || run.Dur != 3000 {
		t.Fatalf("run event = %+v", run)
	}
	if stage.Ts != 2000 || stage.Dur != 1000 {
		t.Fatalf("stage event = %+v", stage)
	}
	if stage.Args[ArgsSpanParent] != run.Args[ArgsSpanID] {
		t.Fatalf("stage parent %q != run id %q", stage.Args[ArgsSpanParent], run.Args[ArgsSpanID])
	}
	if stage.Args["kind"] != "map" {
		t.Fatalf("stage attrs missing: %+v", stage.Args)
	}
}

// TestChromeTraceAttrCollision is the regression for the silent
// parentage corruption: user attrs named "id"/"parent" must export
// untouched, and even an attr under the reserved span.* prefix cannot
// displace the synthetic identity keys.
func TestChromeTraceAttrCollision(t *testing.T) {
	mc := NewManualClock(epoch)
	tr := NewTracerClock(mc)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "run")
	_, child := Start(ctx, "stage")
	child.SetAttr("id", "user-id")         // used to overwrite the span id
	child.SetAttr("parent", "user-parent") // used to overwrite the parent link
	child.SetAttr("span.id", "evil")       // reserved prefix: synthetic wins
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	run, stage := doc.TraceEvents[0], doc.TraceEvents[1]
	if stage.Args[ArgsSpanParent] != run.Args[ArgsSpanID] {
		t.Fatalf("colliding attrs corrupted parentage: parent %q, run id %q",
			stage.Args[ArgsSpanParent], run.Args[ArgsSpanID])
	}
	if stage.Args[ArgsSpanID] == "evil" {
		t.Fatal("reserved span.id key lost to a user attr")
	}
	if stage.Args["id"] != "user-id" || stage.Args["parent"] != "user-parent" {
		t.Fatalf("unprefixed user attrs dropped: %+v", stage.Args)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace(empty): %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if evs, ok := doc["traceEvents"].([]any); !ok || len(evs) != 0 {
		t.Fatalf("traceEvents = %v, want empty array", doc["traceEvents"])
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("layer.things")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if r.Counter("layer.things") != c {
		t.Fatalf("Counter is not get-or-create")
	}
	g := r.Gauge("layer.level")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(1)
	r.Histogram("z", 1, 2).Observe(1)
	if v := r.Counter("x").Value(); v != 0 {
		t.Fatalf("nil registry counter = %d", v)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot has counters: %v", snap.Counters)
	}
	var c *Counter
	c.Add(5)
	var g *Gauge
	g.Set(5)
	var h *Histogram
	h.Observe(5)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// v <= bound lands in that bucket: 0.5 and 1 in [..1], 5 in (1..10],
	// 50 in (10..100], 500 overflows.
	want := []int64{2, 1, 1, 1}
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(want))
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Count != 5 || s.Sum != 556.5 {
		t.Fatalf("count=%d sum=%v", s.Count, s.Sum)
	}
	if got := s.Mean(); got != 556.5/5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestSnapshotSubAndMerge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(10)
	pre := r.Snapshot()
	c.Add(5)
	r.Counter("b").Add(1)
	diff := r.Snapshot().Sub(pre)
	if diff.Counters["a"] != 5 || diff.Counters["b"] != 1 {
		t.Fatalf("diff = %v", diff.Counters)
	}
	other := NewRegistry()
	other.Counter("a").Add(2)
	other.Counter("c").Add(3)
	merged := diff.Merge(other.Snapshot())
	if merged.Counters["a"] != 7 || merged.Counters["b"] != 1 || merged.Counters["c"] != 3 {
		t.Fatalf("merged = %v", merged.Counters)
	}
}

func TestSnapshotStringDeterministic(t *testing.T) {
	r := NewRegistry()
	for i := 9; i >= 0; i-- {
		r.Counter(fmt.Sprintf("m%d", i)).Add(int64(i))
	}
	first := r.Snapshot().String()
	for i := 0; i < 10; i++ {
		if got := r.Snapshot().String(); got != first {
			t.Fatalf("Snapshot.String is nondeterministic:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h", 10, 100).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("shared").Value(); v != 8000 {
		t.Fatalf("shared = %d, want 8000", v)
	}
	if n := r.Histogram("h", 10, 100).Snapshot().Count; n != 8000 {
		t.Fatalf("hist count = %d, want 8000", n)
	}
}
