package main

// One run of one workload: timed set-ups, the measured phase with
// tracing off, verification, and the end-to-end metrics.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"modeldata/internal/engine"
	"modeldata/internal/mcdb"
	"modeldata/internal/obs"
	"modeldata/internal/server"
)

// metric is one reported number. N is the sample count behind a timing
// (0 where it does not apply).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems lists failed ops and violated assertions (first few).
	Problems []string `json:"problems,omitempty"`
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// problem records a violated assertion; the run is then not correct.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 12 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// workload describes one of the five named workloads.
type workload struct {
	name string
	// tail is the bench.latency_tail_ms percentile: the highest of
	// p99/p95/p90/p85 that keeps at least ten samples beyond it at the
	// workload's sample count in one run — except on serve_open, where
	// p99 of one run is the host's doing as often as the program's
	// (22 % between runs) and p90 over chunks is not (7 %).
	tail float64
	// Serving workloads: fixture, traffic, loop shape, and the op kind
	// most of the traffic is (the one server.http_roundtrip_us times).
	// batch_ooc leaves these zero.
	dbs      func(sz sizes) (map[string]*mcdb.DB, error)
	gen      func(seed uint64, sz sizes, seconds float64) *schedule
	clients  int
	open     bool
	mainKind string
}

func oneTenant(build func(sizes) (*mcdb.DB, error)) func(sizes) (map[string]*mcdb.DB, error) {
	return func(sz sizes) (map[string]*mcdb.DB, error) {
		db, err := build(sz)
		if err != nil {
			return nil, err
		}
		return map[string]*mcdb.DB{"t0": db}, nil
	}
}

var workloads = []workload{
	{name: "serve_cached", tail: 0.99, dbs: oneTenant(sbpDB), clients: 2, mainKind: kindHot,
		gen: func(seed uint64, sz sizes, _ float64) *schedule { return genCached(seed, sz) }},
	{name: "serve_explore", tail: 0.95, dbs: oneTenant(sbpDB), clients: 1, mainKind: kindEstimate,
		gen: func(seed uint64, sz sizes, _ float64) *schedule { return genExplore(seed, sz) }},
	{name: "serve_sql", tail: 0.85, dbs: oneTenant(starDB), clients: 1, mainKind: kindSQL,
		gen: func(seed uint64, sz sizes, _ float64) *schedule { return genSQL(seed, sz) }},
	{name: "serve_open", tail: 0.90, open: true, gen: genOpen, mainKind: kindHot,
		dbs: func(sz sizes) (map[string]*mcdb.DB, error) {
			out := map[string]*mcdb.DB{}
			sz.patients = sz.openPatients
			for _, t := range openTenants {
				db, err := sbpDB(sz)
				if err != nil {
					return nil, err
				}
				out[t] = db
			}
			return out, nil
		}},
	{name: "batch_ooc", tail: 0.85},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is what the command line fixes for a run.
type runConfig struct {
	seed    uint64
	seconds float64 // measured-phase length; 0 = run the plan's op caps
	sz      sizes
	trace   bool
	// traceOut, when set, receives the traced pass as Chrome trace JSON.
	traceOut string
	// tmp is where batch_ooc writes segments and spill files.
	tmp string
}

// phase is the raw outcome of one measured serving phase.
type phase struct {
	samples []sample
	start   time.Time
	wall    time.Duration
	allocKB float64
	srv     obs.Snapshot // the server registry's delta over the phase
	eng     obs.Snapshot // obs.Default()'s delta over the phase
}

// setupServing builds the fixture, starts the server and sends the
// set-up requests — what a deployment pays before its first real query.
func setupServing(ctx context.Context, w workload, p *schedule, sz sizes) (*serving, []sample, []sample, error) {
	dbs, err := w.dbs(sz)
	if err != nil {
		return nil, nil, nil, err
	}
	sv := newServing(dbs)
	first, cached, err := sv.warm(ctx, p)
	if err != nil {
		sv.close()
		return nil, nil, nil, err
	}
	return sv, first, cached, nil
}

// Set-up is repeated within a run and setup_s is the median: at least
// sizes.setups times, and while set-ups are cheap up to maxSetups times
// or setupBudget in total, because a 0.1 s set-up timed three times is
// mostly noise.
const (
	maxSetups   = 15
	setupBudget = 2.5 // seconds
)

// timedSetups calls setup repeatedly and returns each call's seconds.
// The state the last call built is the one the run goes on to use.
func timedSetups(sz sizes, setup func() error) ([]float64, error) {
	var took []float64
	total := 0.0
	for i := 0; i < sz.setups || (sz.setups > 1 && i < maxSetups && total < setupBudget); i++ {
		t0 := obs.Wall.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		took = append(took, obs.Wall.Now().Sub(t0).Seconds())
		total += took[i]
	}
	return took, nil
}

// measure runs the plan once with tracing off.
func (w workload) measure(ctx context.Context, sv *serving, p *schedule, seconds float64, known canon) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	srv0, eng0 := sv.srv.Stats().Registry().Snapshot(), obs.Default().Snapshot()
	var ph phase
	if w.open {
		ph.samples, ph.start, ph.wall = sv.runOpen(ctx, p, known)
	} else {
		ph.samples, ph.start, ph.wall = sv.runClosed(ctx, p, w.clients, seconds, known)
	}
	ph.srv = sv.srv.Stats().Registry().Snapshot().Sub(srv0)
	ph.eng = obs.Default().Snapshot().Sub(eng0)
	runtime.ReadMemStats(&m1)
	ph.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	return ph
}

// runServing is one untraced run of a serve_* workload.
func runServing(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Correct: true, Metrics: map[string]metric{}}
	seconds := cfg.seconds
	if w.open && seconds <= 0 {
		seconds = cfg.sz.openSeconds
	}
	p := w.gen(cfg.seed, cfg.sz, seconds)

	var sv *serving
	var first, cached []sample
	setups, err := timedSetups(cfg.sz, func() (err error) {
		if sv != nil {
			sv.close()
		}
		sv, first, cached, err = setupServing(ctx, w, p, cfg.sz)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer sv.close()
	res.set("setup_s", median(setups), "s", len(setups))

	orc := newOracle(sv)
	known, err := orc.admitWarm(ctx, first, cached)
	if err != nil {
		return nil, err
	}

	ph := w.measure(ctx, sv, p, seconds, known)
	w.judge(ctx, res, orc, p, ph)
	w.endToEnd(res, p, ph)
	return res, nil
}

// judge verifies a measured phase's answers and asserts what must hold
// for its numbers to mean what their names say.
func (w workload) judge(ctx context.Context, res *result, orc *oracle, p *schedule, ph phase) {
	failed, reasons := orc.verify(ctx, ph.samples)
	for _, why := range reasons {
		res.problem("failed op: %s", why)
	}
	res.Failed += failed
	for _, sm := range ph.samples {
		if !sm.shed {
			res.Attempted++
		}
	}
	if n := ph.eng.Counters[engine.MetricColFallback]; n != 0 {
		res.problem("%s = %d, want 0", engine.MetricColFallback, n)
	}
	hits, misses := ph.srv.Counters[server.MetricCacheHits], ph.srv.Counters[server.MetricCacheMisses]
	switch w.name {
	case "serve_cached":
		if float64(hits) < 0.999*float64(hits+misses) {
			res.problem("serve_cached: %d result-cache hits, %d misses; every request must hit", hits, misses)
		}
		if n := ph.srv.Counters[mcdb.MetricRealizeCacheMisses]; n != 0 {
			res.problem("serve_cached: %d bundle realizations in the measured phase, want 0", n)
		}
	case "serve_explore":
		if hits != 0 {
			res.problem("serve_explore: %d result-cache hits, want 0", hits)
		}
	}
	whatifs := 0
	for _, sm := range ph.samples {
		if !sm.shed && sm.op.kind == kindWhatIf {
			whatifs++
		}
	}
	if whatifs > 0 && ph.srv.Counters[mcdb.MetricDeltaItersSkipped] == 0 {
		res.problem("%d what-ifs skipped nothing (%s = 0)", whatifs, mcdb.MetricDeltaItersSkipped)
	}
}

// admitWarm verifies the set-up responses and returns the canonical
// cached bodies of the hot keys.
func (o *oracle) admitWarm(ctx context.Context, first, cached []sample) (canon, error) {
	if failed, reasons := o.verify(ctx, first); failed > 0 {
		return nil, fmt.Errorf("%d set-up requests failed: %v", failed, reasons)
	}
	known := canon{}
	for _, sm := range cached {
		if err := o.check(ctx, sm.op, sm.status, sm.body); err != nil {
			return nil, fmt.Errorf("set-up repeat of a hot key: %w", err)
		}
		known[sm.op] = sm.body
	}
	return known, nil
}

// endToEnd derives the end-to-end metrics of a serving phase.
//
// The sandbox is a few cores of a shared host, and what it takes from a
// run comes in bursts. So a closed loop's throughput and tail are not
// taken over the whole phase, where one burst moves them, but over
// consecutive chunks of it, and the median chunk is reported: a burst
// spoils the chunks it falls in and leaves the median alone. On a quiet
// machine the two readings agree. The open loop's throughput is its
// goodput over the whole schedule, which is the point of it. The tail
// (bench.latency_tail_ms, a traced run's) is taken over chunks as well.
func (w workload) endToEnd(res *result, p *schedule, ph phase) {
	timed, lat, good := w.latencies(p, ph)
	scheduled := len(timed)
	res.set("latency_p50_ms", quantile(lat, 0.5), "ms", len(lat))
	res.set("alloc_kb_per_op", ph.allocKB/float64(scheduled), "KiB", scheduled)
	if w.open {
		res.set("ops_per_s", float64(good)/ph.wall.Seconds(), "1/s", scheduled)
		return
	}
	var rates []float64
	from := ph.start
	for _, c := range chunks(len(timed), p.unit, minRateChunk) {
		ok := 0
		for _, sm := range timed[c[0]:c[1]] {
			if !sm.bad {
				ok++
			}
		}
		to := timed[c[1]-1].done
		rates = append(rates, float64(ok)/to.Sub(from).Seconds())
		from = to
	}
	res.set("ops_per_s", median(rates), "1/s", scheduled)
}

// latencies returns a phase's samples in the order things happened — a
// closed loop's by completion (one client's already are), the open
// loop's by due time — with the latencies (ms) the latency metrics are
// taken over and the number of good answers.
func (w workload) latencies(p *schedule, ph phase) (timed []sample, lat []float64, good int) {
	timed = append([]sample(nil), ph.samples...)
	if w.open {
		sort.SliceStable(timed, func(i, j int) bool { return timed[i].pos < timed[j].pos })
	} else {
		sort.SliceStable(timed, func(i, j int) bool { return timed[i].done.Before(timed[j].done) })
	}
	for _, sm := range timed {
		gated := !w.open || p.step[sm.pos] == openGateStep
		if sm.shed {
			// Never sent: it waited past the limit, which is its latency.
			if gated {
				lat = append(lat, ms(sm.lag))
			}
			continue
		}
		if gated {
			lat = append(lat, ms(sm.lat))
		}
		if !sm.bad && (!w.open || sm.lat <= openLimit) {
			good++
		}
	}
	return timed, lat, good
}

// tailOf is the tail percentile of latencies in time order: the median
// over chunks that each keep ten samples beyond the percentile.
func tailOf(lat []float64, unit int, tail float64) float64 {
	var tails []float64
	for _, c := range chunks(len(lat), unit, int(math.Ceil(10/(1-tail)))) {
		tails = append(tails, quantile(lat[c[0]:c[1]], tail))
	}
	return median(tails)
}

// minRateChunk is the least number of ops a throughput chunk holds, and
// maxChunks the most chunks a phase is cut into.
const (
	minRateChunk = 10
	maxChunks    = 50
)

// chunks cuts n consecutive ops into at most maxChunks runs [lo, hi) of
// equal length, a whole number of units and at least min ops each; the
// last run takes the remainder. Fewer than 2·min ops are one run.
func chunks(n, unit, min int) [][2]int {
	size := (n + maxChunks - 1) / maxChunks
	if size < min {
		size = min
	}
	size = (size + unit - 1) / unit * unit
	k := n / size
	if k < 1 {
		k = 1
	}
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * size, (i + 1) * size}
	}
	out[k-1][1] = n
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
