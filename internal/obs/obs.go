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
//   - Everything is nil-safe. A nil *Span, *Counter, *Gauge, or
//     *Registry absorbs calls without allocating, so hot loops
//     instrument unconditionally and pay near zero when observability
//     is off.
//
// Spans and the Registry travel through context.Context (WithTracer),
// mirroring how the parallel runtime plumbs worker bounds and stats.
// Traces export in the Chrome trace-event format (WriteChromeTrace),
// loadable in chrome://tracing or Perfetto.
package obs

import (
	"time"
)

// Clock abstracts wall-clock reads so that every timestamp in the
// observability layer is injectable: production uses Wall, tests
// program their own, and the rngsource lint allows time.Now() only inside
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

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)
