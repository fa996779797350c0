package parallel

import (
	"time"

	"modeldata/internal/obs"
)

// Metric names under which Stats counters live in the per-run registry
// (DESIGN.md §8 documents the naming scheme). Layers that want to read
// or assert on these counters address them by name through
// Stats.Registry().
const (
	MetricIterations   = "parallel.iterations"
	MetricShuffleBytes = "mapreduce.shuffle_bytes"
	MetricAttempts     = "task.attempts"
	MetricRetries      = "task.retries"
	MetricBackoffNanos = "task.backoff_ns"
)

// Stats accumulates per-run execution counters across every parallel
// loop (and MapReduce shuffle) that runs under a context carrying it.
// The counters live in a per-run obs.Registry, which is where they are
// read: Registry().Counter(MetricRetries) or a Registry().Snapshot().
// All methods are safe for concurrent use and nil-safe: a nil *Stats
// counts nothing, so hot loops may call Add* unconditionally.
type Stats struct {
	clock obs.Clock
	start time.Time
	reg   *obs.Registry

	iterations   *obs.Counter
	shuffleBytes *obs.Counter
	taskAttempts *obs.Counter
	retries      *obs.Counter
	backoffNanos *obs.Counter
}

// NewStats returns a Stats collector whose clock starts now (wall
// time).
func NewStats() *Stats { return NewStatsClock(obs.Wall) }

// NewStatsClock returns a Stats collector timed by c, so tests can
// freeze or step elapsed time deterministically.
func NewStatsClock(c obs.Clock) *Stats {
	if c == nil {
		c = obs.Wall
	}
	reg := obs.NewRegistry()
	return &Stats{
		clock:        c,
		start:        c.Now(),
		reg:          reg,
		iterations:   reg.Counter(MetricIterations),
		shuffleBytes: reg.Counter(MetricShuffleBytes),
		taskAttempts: reg.Counter(MetricAttempts),
		retries:      reg.Counter(MetricRetries),
		backoffNanos: reg.Counter(MetricBackoffNanos),
	}
}

// Registry exposes the per-run metrics registry backing this collector,
// so layers with richer metrics (realize-cache hits, per-stage
// histograms) report into the same per-run sink. Returns nil for a nil
// *Stats; obs metrics are nil-safe, so the result can be used without
// checking.
func (s *Stats) Registry() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// AddIterations records n completed Monte Carlo iterations (samples,
// particles, chain replicates, design points, …).
func (s *Stats) AddIterations(n int64) {
	if s != nil {
		s.iterations.Add(n)
	}
}

// AddShuffleBytes records n bytes moved through a shuffle stage.
func (s *Stats) AddShuffleBytes(n int64) {
	if s != nil {
		s.shuffleBytes.Add(n)
	}
}

// AddTaskAttempts records n task attempts launched (first tries and
// retries both count).
func (s *Stats) AddTaskAttempts(n int64) {
	if s != nil {
		s.taskAttempts.Add(n)
	}
}

// AddRetries records n failed task attempts that were re-run.
func (s *Stats) AddRetries(n int64) {
	if s != nil {
		s.retries.Add(n)
	}
}

// AddBackoff records time spent pausing between failed attempts.
func (s *Stats) AddBackoff(d time.Duration) {
	if s != nil {
		s.backoffNanos.Add(int64(d))
	}
}

// Elapsed returns the time since NewStats, measured by the collector's
// clock.
func (s *Stats) Elapsed() time.Duration {
	if s == nil || s.start.IsZero() {
		return 0
	}
	return s.clock.Now().Sub(s.start)
}
