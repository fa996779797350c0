// Package obs is the observability layer of the runtime: hierarchical
// spans, a typed metrics registry, and profiling hooks, all built on
// the standard library alone.
//
// The paper's central operational pain point is that model-data
// workflows fail opaquely — a Monte Carlo run that silently falls back
// to a slow path, retries crashed tasks, or degrades statistically
// looks identical to a healthy one from the outside. This package makes
// those paths visible without compromising the repository's determinism
// contract (DESIGN.md §6):
//
//   - Wall-clock time is read only through an injectable Clock, so the
//     rngsource lint can keep banning ambient time.Now() everywhere
//     else. Clock values flow into traces and reports, never into keyed
//     or numeric experiment output.
//   - Spans and metrics are observation-only: a run with a Tracer and
//     Registry installed produces bit-identical results to a run
//     without them, at any worker count.
//   - Everything is nil-safe. A nil *Span, *Counter, *Gauge,
//     *Histogram, or *Registry absorbs calls without allocating, so hot
//     loops instrument unconditionally and pay near zero when
//     observability is off.
//
// Spans and the Registry travel through context.Context (WithTracer),
// mirroring how the parallel runtime plumbs worker bounds and stats.
// Traces export in the Chrome trace-event format (WriteChromeTrace),
// loadable in chrome://tracing or Perfetto.
package obs

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock reads so that every timestamp in the
// observability layer is injectable: production uses Wall, tests use a
// ManualClock, and the rngsource lint allows time.Now() only inside
// this seam.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

// Now reads the real wall clock. This is the one place in the
// repository (outside internal/rng) permitted to call time.Now; the
// value is measurement-only and never feeds into experiment results.
func (wallClock) Now() time.Time { return time.Now() }

// Wall is the real wall clock.
var Wall Clock = wallClock{}

// ManualClock is a deterministic Clock for tests: it returns a
// programmed instant and only moves when told to. Safe for concurrent
// use.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock returns a ManualClock frozen at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{t: start}
}

// Now returns the programmed instant.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Set jumps the clock to t.
func (c *ManualClock) Set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)
