package main

// The traced pass. End-to-end metrics always come from a pass with
// tracing off; here the benchmark replays a workload's request list
// from its start and, around every op, makes the calls the server path
// makes — from outside, into the layers' public functions — each inside
// an obs span:
//
//	request                       root, one per op (workload, kind, tenant, request id)
//	  server.http_roundtrip       the POST, against server A
//	  server.query                the same request as a direct method call, against server B
//	  mcdb.* / engine.*           the calls one shard makes for it, on the benchmark's own state
//
// A and B are two identically set-up servers fed the identical
// sequence, so their cache states evolve in step and the two timings
// are of equivalent work. The children are siblings because that is how
// they were measured; what nests inside what is reconstructed as
// differences (codec_transport = roundtrip − query, fanout_merge = query
// − Σ lower calls), and what the differences cannot place is reported
// as bench.unattributed_share rather than hidden.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"modeldata/internal/engine"
	"modeldata/internal/mcdb"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
	"modeldata/internal/server"
)

// Span names recorded by the traced pass.
const (
	spanRequest   = "request"
	spanHTTP      = "server.http_roundtrip"
	spanQuery     = "server.query"
	spanBundled   = "mcdb.instantiate_bundled"
	spanFilterDet = "mcdb.filter_det"
	spanEstimate  = "mcdb.estimate"
	spanExecDelta = "mcdb.exec_delta"
	spanInst      = "mcdb.instantiate"
	spanScalar    = "engine.sql_scalar"
	spanPrepare   = "engine.prepare"
	spanFromTable = "engine.from_table"
	spanEngine    = "engine.query"
	spanScan      = "colstore.scan"
	spanWrite     = "colstore.write"
)

// probeSpans are direct calls made for their own timing; they are not
// steps of the request they sit under.
var probeSpans = map[string]bool{spanPrepare: true, spanFromTable: true}

// tracing is one traced pass: the tracer, and the untraced context the
// measured calls themselves run under (so that spans the program would
// record internally stay out of an outside-in trace).
type tracing struct {
	tr       *obs.Tracer
	plain    context.Context
	traced   context.Context
	workload string
	next     int
}

func newTracing(ctx context.Context, workload string) *tracing {
	tr := obs.NewTracer()
	return &tracing{tr: tr, plain: ctx, traced: obs.WithTracer(ctx, tr), workload: workload}
}

// request runs fn under the root span of one op; fn records the op's
// child spans through the context it is given.
func (t *tracing) request(kind, tenant string, fn func(rctx context.Context) error) error {
	t.next++
	rctx, sp := obs.Start(t.traced, spanRequest)
	defer sp.End()
	sp.SetAttr("workload", t.workload)
	sp.SetAttr("kind", kind)
	sp.SetAttr("tenant", tenant)
	sp.SetAttr("request", strconv.Itoa(t.next))
	return fn(rctx)
}

// child runs fn inside a span under the request on rctx. The span
// carries the request id so a trace viewer can group one op's spans.
func (t *tracing) child(rctx context.Context, name string, fn func() error) error {
	_, sp := obs.Start(rctx, name)
	defer sp.End()
	sp.SetAttr("request", strconv.Itoa(t.next))
	return fn()
}

// spanCost times the bookkeeping of one span: what recording costs an
// op, as opposed to what the op costs.
func spanCost(ctx context.Context) time.Duration {
	const n = 2000
	rctx, root := obs.Start(obs.WithTracer(ctx, obs.NewTracer()), spanRequest)
	defer root.End()
	t0 := obs.Wall.Now()
	for i := 0; i < n; i++ {
		_, sp := obs.Start(rctx, spanRequest)
		sp.SetAttr("request", "0")
		sp.End()
	}
	return obs.Wall.Now().Sub(t0) / n
}

// tracedOp is one op's spans, regrouped from the tracer's snapshot.
type tracedOp struct {
	kind     string
	root     time.Duration
	children map[string]time.Duration // Σ duration by span name
}

// lower is the time of the calls below the server for this op.
func (o tracedOp) lower() time.Duration {
	var d time.Duration
	for name, v := range o.children {
		if name != spanHTTP && name != spanQuery && !probeSpans[name] {
			d += v
		}
	}
	return d
}

// analysis is everything derived from the spans of one traced pass.
type analysis struct {
	ops    []tracedOp
	spans  int
	byName map[string][]float64 // span name → durations, ms
}

func (t *tracing) analyse() analysis {
	a := analysis{byName: map[string][]float64{}}
	roots := map[uint64]int{}
	for _, sp := range t.tr.Snapshot() {
		a.spans++
		if sp.Parent == 0 {
			kind := ""
			for _, at := range sp.Attrs {
				if at.Key == "kind" {
					kind = at.Value
				}
			}
			roots[sp.ID] = len(a.ops)
			a.ops = append(a.ops, tracedOp{kind: kind, root: sp.Duration(), children: map[string]time.Duration{}})
			continue
		}
		a.byName[sp.Name] = append(a.byName[sp.Name], ms(sp.Duration()))
		if i, ok := roots[sp.Parent]; ok {
			a.ops[i].children[sp.Name] += sp.Duration()
		}
	}
	return a
}

// perOp returns f over the traced ops of the given kinds ("" = all).
func (a analysis) perOp(f func(tracedOp) (float64, bool), kinds ...string) []float64 {
	var out []float64
	for _, o := range a.ops {
		match := len(kinds) == 0
		for _, k := range kinds {
			match = match || o.kind == k
		}
		if !match {
			continue
		}
		if v, ok := f(o); ok {
			out = append(out, v)
		}
	}
	return out
}

// unattributed is the share of the traced pass the decomposition cannot
// place in a layer: root-span time outside every child (the benchmark's
// own glue) plus the magnitude of negative differences, where a lower
// level timed longer than the level above it.
func (a analysis) unattributed() float64 {
	var total, lost time.Duration
	for _, o := range a.ops {
		total += o.root
		var sum time.Duration
		for _, d := range o.children {
			sum += d
		}
		lost += o.root - sum
		if h, q := o.children[spanHTTP], o.children[spanQuery]; q > h && h > 0 {
			lost += q - h
		}
		if q, l := o.children[spanQuery], o.lower(); l > q && q > 0 {
			lost += l - q
		}
		if e, s := o.children[spanEngine], o.children[spanScan]; s > e && e > 0 {
			lost += s - e
		}
	}
	if total == 0 {
		return 0
	}
	return float64(lost) / float64(total)
}

// overhead is the share of the traced pass spent recording spans. The
// spans are the benchmark's own, around its calls, so their cost is
// measured directly rather than as traced ÷ untraced latency: the two
// passes differ in more than tracing (what runs beside each request).
func (a analysis) overhead(perSpan time.Duration) float64 {
	var total time.Duration
	for _, o := range a.ops {
		total += o.root
	}
	if total == 0 {
		return 0
	}
	return float64(a.spans) * float64(perSpan) / float64(total)
}

// layerUnits is the per-layer metric catalogue: every traced run of
// every workload reports every name, 0 where the workload does not
// touch the layer. BENCHMARK.json lists the same names and units, and
// README.md says what each measures and which end-to-end metric it
// should move.
var layerUnits = [][2]string{
	{"server.http_roundtrip_us", "us"}, {"server.query_hit_us", "us"}, {"server.query_miss_us", "us"},
	{"server.codec_transport_us", "us"}, {"server.fanout_merge_us", "us"}, {"server.resp_bytes_per_op", "B"},
	{"server.cache.hit_ratio", "ratio"}, {"server.cache.evictions", "count"},
	{"server.admitted", "count"}, {"server.rejected", "count"},
	{"mcdb.instantiate_bundled_ms", "ms"}, {"mcdb.ns_per_tuple_iter", "ns"}, {"mcdb.allocs_per_tuple_iter", "count"},
	{"mcdb.realize_dup_ratio", "ratio"}, {"mcdb.realize_cache_hit_ratio", "ratio"},
	{"mcdb.filter_det_ms", "ms"}, {"mcdb.estimate_ms", "ms"},
	{"mcdb.exec_delta_ms", "ms"}, {"mcdb.delta_skip_ratio", "ratio"}, {"mcdb.instantiate_ms", "ms"},
	{"engine.prepare_us", "us"}, {"engine.sql_scalar_ms", "ms"}, {"engine.from_table_ms", "ms"},
	{"engine.plan_cache_hit_ratio", "ratio"}, {"engine.rows_scanned_per_op", "count"}, {"engine.colfallback", "count"},
	{"engine.groupby_mem_mrows_s", "Mrows/s"}, {"engine.join_mem_mrows_s", "Mrows/s"},
	{"colstore.open_ms", "ms"}, {"colstore.decode_ns_per_row", "ns"}, {"colstore.scan_pruned_ms", "ms"},
	{"colstore.prune_ratio", "ratio"}, {"colstore.spill_bytes_per_row", "B"}, {"colstore.spill_partitions", "count"},
	{"colstore.spill_fallbacks", "count"}, {"colstore.disk_bytes_per_row", "B"},
	{"parallel.forstreams_ns_per_iter", "ns"}, {"rng.normal_ns", "ns"},
	{"runtime.peak_heap_mb", "MiB"}, {"runtime.gc_cpu_share", "share"},
	{"kind.hot_p50_ms", "ms"}, {"kind.estimate_p50_ms", "ms"}, {"kind.whatif_p50_ms", "ms"},
	{"kind.realize_p50_ms", "ms"}, {"kind.sql_p50_ms", "ms"},
	{"batch.write_mrows_s", "Mrows/s"}, {"batch.scan_mrows_s", "Mrows/s"},
	{"batch.groupby_spill_mrows_s", "Mrows/s"}, {"batch.join_spill_mrows_s", "Mrows/s"},
	{"bench.latency_tail_ms", "ms"}, {"bench.goodput_share", "share"}, {"bench.shed_share", "share"}, {"bench.sched_lag_p99_ms", "ms"},
	{"bench.latency_p99_ms.r1", "ms"}, {"bench.latency_p99_ms.r2", "ms"}, {"bench.latency_p99_ms.r3", "ms"},
	{"bench.max_rate_ok", "1/s"},
	{"bench.calib_ns", "ns"}, {"bench.trace_overhead_share", "share"}, {"bench.unattributed_share", "share"},
}

// layers starts a traced result with every catalogue name at 0.
func layers(res *result) {
	for _, nu := range layerUnits {
		res.set(nu[0], 0, nu[1], 0)
	}
}

// put overwrites a catalogue entry, keeping its unit. A value that is
// not a number — the median of no samples — stays 0: the workload did
// not touch that layer.
func (r *result) put(name string, v float64, n int) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: " + name + " is not in the per-layer catalogue") // a typo in this package
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value, m.N = v, n
	r.Metrics[name] = m
}

// putMedian is put for the median of a sample, with its size.
func (r *result) putMedian(name string, xs []float64) { r.put(name, median(xs), len(xs)) }

// --- workload-independent probes ---

var sink uint64

// calibrate times a fixed CPU loop: a machine or a moment that runs it
// slower runs everything slower, which tells a noisy box from a
// regression. Returns ns per iteration.
func calibrate() float64 {
	const n = 4_000_000
	x := uint64(88172645463325252)
	t0 := obs.Wall.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := obs.Wall.Now().Sub(t0)
	sink += x
	return float64(d.Nanoseconds()) / n
}

func probeRNG() float64 {
	const n = 1_000_000
	r := rng.New(1)
	acc := 0.0
	t0 := obs.Wall.Now()
	for i := 0; i < n; i++ {
		acc += r.Normal(0, 1)
	}
	d := obs.Wall.Now().Sub(t0)
	sink += math.Float64bits(acc)
	return float64(d.Nanoseconds()) / n
}

func probeForStreams(ctx context.Context) (float64, error) {
	const n = 100_000
	t0 := obs.Wall.Now()
	err := parallel.ForStreams(ctx, rng.New(1), n, parallel.Options{Workers: clients},
		func(int, *rng.Stream) error { return nil })
	return float64(obs.Wall.Now().Sub(t0).Nanoseconds()) / n, err
}

// runtimeSampler polls runtime/metrics every 5 ms for the heap
// high-water mark, and reads GC CPU at both ends.
type runtimeSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
	gc0  float64
	tot0 float64
}

const (
	rmHeap  = "/memory/classes/heap/objects:bytes"
	rmGCCPU = "/cpu/classes/gc/total:cpu-seconds"
	rmCPU   = "/cpu/classes/total:cpu-seconds"
	rmIdle  = "/cpu/classes/idle:cpu-seconds"
)

func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func startRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{stop: make(chan struct{})}
	v := readRuntime(rmGCCPU, rmCPU, rmIdle)
	s.gc0, s.tot0 = v[0], v[1]-v[2]
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if h := uint64(readRuntime(rmHeap)[0]); h > s.peak {
					s.peak = h
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak heap in MiB and the
// share of non-idle CPU time the collector used.
func (s *runtimeSampler) finish() (peakMB, gcShare float64) {
	close(s.stop)
	s.done.Wait()
	v := readRuntime(rmGCCPU, rmCPU, rmIdle)
	if busy := (v[1] - v[2]) - s.tot0; busy > 0 {
		gcShare = (v[0] - s.gc0) / busy
	}
	return float64(s.peak) / (1 << 20), gcShare
}

// --- serving ---

// ownState is what the benchmark keeps to make the lower-level calls
// itself: realized bundles and warm sessions, per tenant.
type ownState struct {
	sv      *serving
	sess    map[string]*mcdb.Session
	bundles map[bundleID]map[string]*mcdb.BundleTable // bounded: evicted past ownBundleCap
	order   []bundleID
	stats   *parallel.Stats // receives mcdb.delta_* from the what-if calls
	// One entry per timed realization.
	allocsPerTupleIter, nsPerTupleIter []float64
}

type bundleID struct {
	tenant string
	seed   uint64 // effective
}

// ownBundleCap bounds the benchmark's own realizations (4 MB each at
// full size).
const ownBundleCap = 6

func newOwnState(sv *serving) *ownState {
	o := &ownState{sv: sv, sess: map[string]*mcdb.Session{}, bundles: map[bundleID]map[string]*mcdb.BundleTable{},
		stats: parallel.NewStats()}
	for name, db := range sv.dbs {
		o.sess[name] = db.NewSessionCache(ownBundleCap)
	}
	return o
}

func (o *ownState) keep(id bundleID, b map[string]*mcdb.BundleTable) {
	if _, ok := o.bundles[id]; !ok {
		o.order = append(o.order, id)
		if len(o.order) > ownBundleCap {
			delete(o.bundles, o.order[0])
			o.order = o.order[1:]
		}
	}
	o.bundles[id] = b
}

// prepare brings the benchmark's own state to where the server's is
// when q arrives — the realization an estimate reads, the warm session a
// what-if starts from — outside any span: it is not part of the op.
func (o *ownState) prepare(ctx context.Context, q *op) error {
	if q.agg == nil || q.kind == kindHot || q.kind == kindRealize {
		return nil
	}
	eff := o.sv.srv.EffectiveSeed(q.tenant, q.seed)
	if q.agg.whatif {
		opts := mcdb.ExecOptions{Iterations: q.iters, Seed: eff, Workers: clients}
		_, err := o.sess[q.tenant].Exec(ctx, mcdb.AggQuery{Table: sbpTable, Col: sbpCol, Fn: engine.AggAvg}, opts)
		return err
	}
	id := bundleID{q.tenant, eff}
	if o.bundles[id] != nil {
		return nil
	}
	b, err := o.sv.dbs[q.tenant].InstantiateBundledCtx(ctx, q.iters, eff, clients)
	if err != nil {
		return err
	}
	o.keep(id, b)
	return nil
}

// lowerCalls makes, inside spans, the calls one shard of the server
// makes for q, on the benchmark's own state, and returns the samples
// they produce for shard 0's window (nil when the kind has none).
func (o *ownState) lowerCalls(t *tracing, rctx context.Context, q *op) ([]float64, error) {
	db := o.sv.dbs[q.tenant]
	eff := o.sv.srv.EffectiveSeed(q.tenant, q.seed)
	half := q.iters - q.iters/2 // shard 0's window is the wider one
	if q.agg == nil {
		return o.lowerSQL(t, rctx, db, q, eff, half)
	}
	if q.kind == kindHot {
		return nil, nil
	}
	aq, err := aggQuery(q.agg, true)
	if err != nil {
		return nil, err
	}
	if q.agg.whatif {
		opts := mcdb.ExecOptions{Iterations: q.iters, Seed: eff, Workers: 1}
		var out []float64
		sctx := parallel.WithStats(t.plain, o.stats)
		err := t.child(rctx, spanExecDelta, func() (err error) {
			out, err = o.sess[q.tenant].ExecDeltaRange(sctx, aq, opts, whatIfDelta(q.agg.shift), 0, half)
			return err
		})
		return out, err
	}
	id := bundleID{q.tenant, eff}
	if q.kind == kindRealize {
		var bundles map[string]*mcdb.BundleTable
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := obs.Wall.Now()
		err := t.child(rctx, spanBundled, func() (err error) {
			bundles, err = db.InstantiateBundledCtx(t.plain, q.iters, eff, 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		took := obs.Wall.Now().Sub(t0)
		runtime.ReadMemStats(&m1)
		tupleIters := float64(bundles[sbpTable].Len() * q.iters)
		o.allocsPerTupleIter = append(o.allocsPerTupleIter, float64(m1.Mallocs-m0.Mallocs)/tupleIters)
		o.nsPerTupleIter = append(o.nsPerTupleIter, float64(took.Nanoseconds())/tupleIters)
		o.keep(id, bundles)
	}
	bt := o.bundles[id][sbpTable]
	if aq.WhereDet != nil {
		if err := t.child(rctx, spanFilterDet, func() error { bt = bt.FilterDet(aq.WhereDet); return nil }); err != nil {
			return nil, err
		}
	}
	var full []float64
	err = t.child(rctx, spanEstimate, func() (err error) {
		full, err = bt.Estimate(aq.Col, aq.Fn, aq.WhereUnc)
		return err
	})
	if err != nil {
		return nil, err
	}
	return full[:half], nil
}

func (o *ownState) lowerSQL(t *tracing, rctx context.Context, db *mcdb.DB, q *op, eff uint64, half int) ([]float64, error) {
	var p *engine.Prepared
	err := t.child(rctx, spanPrepare, func() (err error) { p, err = engine.Prepare(q.sql); return err })
	if err != nil {
		return nil, err
	}
	streams := rng.New(eff).SplitN(q.iters)
	out := make([]float64, half)
	var inst *engine.Database
	for i := 0; i < half; i++ {
		sub := *streams[i]
		if err := t.child(rctx, spanInst, func() (err error) { inst, err = db.Instantiate(&sub); return err }); err != nil {
			return nil, err
		}
		if err := t.child(rctx, spanScalar, func() (err error) { out[i], err = p.Scalar(inst); return err }); err != nil {
			return nil, err
		}
	}
	// The statement's fact table, row store to column vectors: what
	// every Scalar call above paid inside the engine.
	tbl, err := inst.Get(factTable[q.sql])
	if err != nil {
		return nil, err
	}
	err = t.child(rctx, spanFromTable, func() error { _, err := engine.FromTable(tbl); return err })
	return out, err
}

// direct sends q to server B as a method call and returns the samples.
func direct(ctx context.Context, sv *serving, q *op) ([]float64, error) {
	if q.agg == nil {
		resp, err := sv.srv.SQL(ctx, q.sqlReq)
		if err != nil {
			return nil, err
		}
		return resp.Samples, nil
	}
	resp, err := sv.srv.Query(ctx, q.aggReq)
	if err != nil {
		return nil, err
	}
	return resp.Samples, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// replay is the traced pass of a serving workload: whole units from the
// start of the schedule until the deadline or maxUnits.
func replay(ctx context.Context, w workload, p *schedule, a, b *serving, seconds float64, maxUnits int, res *result) (*tracing, *ownState, error) {
	t := newTracing(ctx, w.name)
	own := newOwnState(a)
	var buf bytes.Buffer
	start := obs.Wall.Now()
	for u := 0; u < maxUnits && (u+1)*p.unit <= len(p.order); u++ {
		for i := u * p.unit; i < (u+1)*p.unit; i++ {
			q := p.pool[p.order[i]]
			var viaHTTP server.QueryResponse
			var viaCall, lower []float64
			if err := own.prepare(ctx, q); err != nil {
				return nil, nil, fmt.Errorf("traced %s op %d: %w", q.kind, i, err)
			}
			err := t.request(q.kind, q.tenant, func(rctx context.Context) error {
				if err := t.child(rctx, spanHTTP, func() error {
					status, err := a.post(t.plain, q, &buf)
					if err == nil && status != 200 {
						err = fmt.Errorf("status %d: %s", status, truncate(buf.Bytes(), 120))
					}
					return err
				}); err != nil {
					return err
				}
				if err := t.child(rctx, spanQuery, func() (err error) {
					viaCall, err = direct(t.plain, b, q)
					return err
				}); err != nil {
					return err
				}
				var err error
				lower, err = own.lowerCalls(t, rctx, q)
				return err
			})
			if err != nil {
				return nil, nil, fmt.Errorf("traced %s op %d: %w", q.kind, i, err)
			}
			res.Attempted++
			if err := json.Unmarshal(buf.Bytes(), &viaHTTP); err != nil {
				return nil, nil, fmt.Errorf("traced %s op %d: decoding: %w", q.kind, i, err)
			}
			// Three routes to one answer: they must agree to the bit.
			if !sameBits(viaHTTP.Samples, viaCall) || (lower != nil && !sameBits(viaHTTP.Samples[:len(lower)], lower)) {
				res.Failed++
				res.problem("failed op: traced %s op %d: HTTP, direct and layer-level answers differ", q.kind, i)
			}
		}
		if seconds > 0 && obs.Wall.Now().Sub(start).Seconds() >= seconds {
			break
		}
	}
	return t, own, nil
}
