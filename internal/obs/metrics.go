package obs

// The typed metrics registry. Counters and gauges are named, get-or-create, and safe for concurrent use; a Registry
// snapshot is deterministic (sorted by name) so run reports and golden
// tests can compare them byte-for-byte. Metric names follow the
// <layer>.<noun>[_<unit>] scheme documented in DESIGN.md §8, e.g.
// "engine.colfallback", "task.backoff_ns", "mapreduce.shuffle_bytes".

import (
	"fmt"
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
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
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

// Snapshot is a point-in-time copy of a Registry, safe to retain and
// compare. Maps are keyed by metric name.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
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
	return s
}

// Sub returns the counter-wise difference s − prev: what happened
// between the two snapshots. Gauges keep their current (s) values.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]int64, len(s.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	return out
}

// Merge folds other's counters into a copy of s (gauges from other
// win). It lets a run report combine per-run registry
// counters with global-registry deltas.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]int64, len(s.Counters)+len(other.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)+len(other.Gauges)),
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
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
