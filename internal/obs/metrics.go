package obs

// The typed metrics registry. Counters, gauges, and histograms are
// named, get-or-create, and safe for concurrent use; a Registry
// snapshot is deterministic (sorted by name) so run reports and golden
// tests can compare them byte-for-byte. Metric names follow the
// <layer>.<noun>[_<unit>] scheme documented in DESIGN.md §8, e.g.
// "engine.colfallback", "task.backoff_ns", "mapreduce.shuffle_bytes".

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; a nil *Counter absorbs calls.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (a level, not a rate). The zero
// value is ready to use; a nil *Gauge absorbs calls.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates float64 observations into fixed buckets.
// Bucket i counts observations v with v <= Bounds[i] (and the last
// implicit bucket counts the overflow). A nil *Histogram absorbs calls.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	n      int64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.n++
	h.sum += v
	h.mu.Unlock()
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Bounds []float64 // upper bounds; Counts has one extra overflow bucket
	Counts []int64
	Count  int64
	Sum    float64
}

// Mean returns the mean of the observations, or 0 for an empty
// histogram.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.n,
		Sum:    h.sum,
	}
}

// Registry is a concurrent name → metric map. Metrics are get-or-create
// so independent layers can share a counter by agreeing on its name. A
// nil *Registry hands out nil metrics, which absorb all calls — callers
// never need a nil check.
type Registry struct {
	mu sync.Mutex
	// bounded by the compiled-in counter names: get-or-create keys are
	// string constants at instrumentation sites, never request data
	counters map[string]*Counter // guarded by mu
	// bounded by the compiled-in gauge names
	gauges map[string]*Gauge // guarded by mu
	// bounded by the compiled-in histogram names
	hists map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// std is the process-wide default registry, the reporting target for
// layers whose APIs carry no context (the relational engine's query
// paths). Per-run accounting lives in per-run registries
// (parallel.Stats); modeldata.Run diffs std around a run to attribute
// its global counters.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (which must be sorted ascending) on first use.
// Later calls with different bounds return the existing histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a Registry, safe to retain and
// compare. Maps are keyed by metric name.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistSnapshot
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Sub returns the counter-wise difference s − prev: what happened
// between the two snapshots. Gauges keep their current (s) values;
// histogram counts and sums are differenced bucket-wise when the bounds
// match and kept from s otherwise.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p, ok := prev.Histograms[name]
		if !ok || len(p.Counts) != len(h.Counts) {
			out.Histograms[name] = h
			continue
		}
		d := HistSnapshot{
			Bounds: h.Bounds,
			Counts: make([]int64, len(h.Counts)),
			Count:  h.Count - p.Count,
			Sum:    h.Sum - p.Sum,
		}
		for i := range h.Counts {
			d.Counts[i] = h.Counts[i] - p.Counts[i]
		}
		out.Histograms[name] = d
	}
	return out
}

// Merge folds other's counters and histograms into a copy of s (gauges
// from other win). It lets a run report combine per-run registry
// counters with global-registry deltas.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)+len(other.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)+len(other.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)+len(other.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v
	}
	for name, v := range other.Counters {
		out.Counters[name] += v
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, v := range other.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = h
	}
	for name, h := range other.Histograms {
		out.Histograms[name] = h
	}
	return out
}

// String renders the snapshot as sorted "name value" lines —
// deterministic regardless of map iteration order, so reports are
// stable across runs.
func (s Snapshot) String() string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%-32s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%-32s %d (gauge)", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%-32s n=%d mean=%s", name, h.Count, trimFloat(h.Mean())))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// trimFloat formats a float compactly for reports.
func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 { // display formatting only: exact integer check picks the shorter rendering
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
