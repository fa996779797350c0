package main

// Traced runs: the reference pass (tracing off), the traced pass, and
// the per-layer metrics derived from both. README.md has the table of
// what each layer metric measures and which end-to-end metric it should
// move.

import (
	"context"
	"os"
	"path/filepath"

	"modeldata/internal/engine"
	"modeldata/internal/mcdb"
	"modeldata/internal/obs"
	"modeldata/internal/server"
)

// traceShare is the part of the schedule a traced pass replays when no
// deadline bounds it.
const traceShare = 10

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
}

func counter(s obs.Snapshot, name string) float64 { return float64(s.Counters[name]) }

// traceServing is one traced run of a serve_* workload.
func traceServing(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Correct: true, Metrics: map[string]metric{}}
	layers(res)
	seconds := cfg.seconds
	if w.open && seconds <= 0 {
		seconds = cfg.sz.openSeconds
	}
	half := seconds / 2
	p := w.gen(cfg.seed, cfg.sz, half)

	// Reference pass: the untraced measured phase, on its own server.
	sv, first, cached, err := setupServing(ctx, w, p, cfg.sz)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	orc := newOracle(sv)
	known, err := orc.admitWarm(ctx, first, cached)
	if err != nil {
		return nil, err
	}
	calib := []float64{calibrate()}
	sampler := startRuntimeSampler()
	ph := w.measure(ctx, sv, p, half, known)
	peakMB, gcShare := sampler.finish()
	w.judge(ctx, res, orc, p, ph)
	w.referenceLayers(res, p, ph)
	res.put("runtime.peak_heap_mb", peakMB, 0)
	res.put("runtime.gc_cpu_share", gcShare, 0)

	// Traced pass: two fresh servers fed the same sequence.
	a, _, _, err := setupServing(ctx, w, p, cfg.sz)
	if err != nil {
		return nil, err
	}
	defer a.close()
	b, _, _, err := setupServing(ctx, w, p, cfg.sz)
	if err != nil {
		return nil, err
	}
	defer b.close()
	maxUnits := len(p.order) / p.unit
	if half <= 0 {
		maxUnits = (maxUnits + traceShare - 1) / traceShare
	}
	t, own, err := replay(ctx, w, p, a, b, half, maxUnits, res)
	if err != nil {
		return nil, err
	}
	calib = append(calib, calibrate())
	an := t.analyse()
	w.spanLayers(res, an, own)
	if err := probes(ctx, res, calib, an); err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		if err := t.tr.WriteChromeTraceFile(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probes fills the workload-independent layer metrics.
func probes(ctx context.Context, res *result, calib []float64, an analysis) error {
	res.put("bench.calib_ns", median(calib), len(calib))
	res.put("bench.unattributed_share", an.unattributed(), len(an.ops))
	res.put("bench.trace_overhead_share", an.overhead(spanCost(ctx)), an.spans)
	res.put("rng.normal_ns", probeRNG(), 0)
	ns, err := probeForStreams(ctx)
	if err != nil {
		return err
	}
	res.put("parallel.forstreams_ns_per_iter", ns, 0)
	return nil
}

// kindLatencies returns the reference-pass latencies (ms) of one kind.
func kindLatencies(ph phase, kind string) []float64 {
	var xs []float64
	for _, sm := range ph.samples {
		if !sm.shed && sm.op.kind == kind {
			xs = append(xs, ms(sm.lat))
		}
	}
	return xs
}

// referenceLayers derives the layer metrics that come from the
// reference pass: per-kind latencies, registry deltas, open-loop
// generator health.
func (w workload) referenceLayers(res *result, p *schedule, ph phase) {
	n := len(ph.samples)
	_, lat, _ := w.latencies(p, ph)
	res.put("bench.latency_tail_ms", tailOf(lat, p.unit, w.tail), len(lat))
	kinds := map[string]int{}
	bytes := 0
	for _, sm := range ph.samples {
		kinds[sm.op.kind]++
		bytes += sm.size
	}
	for _, kind := range []string{kindHot, kindEstimate, kindWhatIf, kindRealize, kindSQL} {
		res.putMedian("kind."+kind+"_p50_ms", kindLatencies(ph, kind))
	}
	res.put("server.resp_bytes_per_op", ratio(float64(bytes), float64(res.Attempted)), res.Attempted)

	srv, eng := ph.srv, ph.eng
	hits, misses := counter(srv, server.MetricCacheHits), counter(srv, server.MetricCacheMisses)
	res.put("server.cache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	res.put("server.cache.evictions", counter(srv, server.MetricCacheEvictions), 0)
	res.put("server.admitted", counter(srv, server.MetricAdmitted), 0)
	res.put("server.rejected", counter(srv, server.MetricRejectedBusy)+
		counter(srv, server.MetricRejectedTenant)+counter(srv, server.MetricRejectedDraining), 0)
	rh, rm := counter(srv, mcdb.MetricRealizeCacheHits), counter(srv, mcdb.MetricRealizeCacheMisses)
	res.put("mcdb.realize_cache_hit_ratio", ratio(rh, rh+rm), int(rh+rm))
	res.put("mcdb.realize_dup_ratio", ratio(rm, float64(kinds[kindRealize])), kinds[kindRealize])
	// Every shard counts skipped iterations over the full run.
	whatifIters := float64(kinds[kindWhatIf]) * 2 * float64(p.pool[0].iters)
	res.put("mcdb.delta_skip_ratio", ratio(counter(srv, mcdb.MetricDeltaItersSkipped), whatifIters), kinds[kindWhatIf])
	ph0, pm := counter(eng, engine.MetricPlanCacheHits), counter(eng, engine.MetricPlanCacheMisses)
	res.put("engine.plan_cache_hit_ratio", ratio(ph0, ph0+pm), int(ph0+pm))
	res.put("engine.rows_scanned_per_op", ratio(counter(eng, engine.MetricRowsScanned), float64(n)), n)
	res.put("engine.colfallback", counter(eng, engine.MetricColFallback), 0)

	if !w.open {
		return
	}
	good, shed := 0, 0
	var lag []float64
	for _, sm := range ph.samples {
		switch {
		case sm.shed:
			shed++
		case !sm.bad && sm.lat <= openLimit:
			good++
		}
		if !sm.queued {
			lag = append(lag, ms(sm.lag))
		}
	}
	res.put("bench.goodput_share", ratio(float64(good), float64(n)), n)
	res.put("bench.shed_share", ratio(float64(shed), float64(n)), n)
	res.put("bench.sched_lag_p99_ms", quantile(lag, 0.99), len(lag))
	maxOK := 0.0
	for s, name := range []string{"r1", "r2", "r3"} {
		var xs []float64
		stepShed := 0
		for _, sm := range ph.samples {
			if int(p.step[sm.pos]) != s {
				continue
			}
			if sm.shed {
				stepShed++
				xs = append(xs, ms(sm.lag))
			} else {
				xs = append(xs, ms(sm.lat))
			}
		}
		if len(xs) == 0 {
			continue
		}
		p99 := quantile(xs, 0.99)
		res.put("bench.latency_p99_ms."+name, p99, len(xs))
		if stepShed == 0 && p99 <= ms(openLimit) {
			maxOK = p.rates[s]
		}
	}
	res.put("bench.max_rate_ok", maxOK, 0)
}

// spanLayers derives the layer metrics that come from the traced pass.
func (w workload) spanLayers(res *result, an analysis, own *ownState) {
	dur := func(name string) func(tracedOp) (float64, bool) {
		return func(o tracedOp) (float64, bool) { d, ok := o.children[name]; return us(d), ok }
	}
	http := an.perOp(dur(spanHTTP), w.mainKind)
	res.putMedian("server.http_roundtrip_us", http)
	hit := an.perOp(dur(spanQuery), kindHot)
	res.putMedian("server.query_hit_us", hit)
	miss := an.perOp(dur(spanQuery), kindEstimate)
	res.putMedian("server.query_miss_us", miss)
	codec := an.perOp(func(o tracedOp) (float64, bool) {
		return us(o.children[spanHTTP] - o.children[spanQuery]), true
	})
	res.putMedian("server.codec_transport_us", codec)
	fan := an.perOp(func(o tracedOp) (float64, bool) {
		return us(o.children[spanQuery] - o.lower()), true
	}, kindEstimate, kindWhatIf, kindRealize, kindSQL)
	res.putMedian("server.fanout_merge_us", fan)

	res.putMedian("mcdb.instantiate_bundled_ms", an.byName[spanBundled])
	res.putMedian("mcdb.ns_per_tuple_iter", own.nsPerTupleIter)
	res.putMedian("mcdb.allocs_per_tuple_iter", own.allocsPerTupleIter)
	res.putMedian("mcdb.filter_det_ms", an.byName[spanFilterDet])
	res.putMedian("mcdb.estimate_ms", an.byName[spanEstimate])
	res.putMedian("mcdb.exec_delta_ms", an.byName[spanExecDelta])
	res.putMedian("mcdb.instantiate_ms", an.byName[spanInst])
	res.putMedian("engine.sql_scalar_ms", an.byName[spanScalar])
	res.putMedian("engine.prepare_us", an.perOp(dur(spanPrepare)))
	res.putMedian("engine.from_table_ms", an.byName[spanFromTable])

	if len(an.byName[spanExecDelta]) > 0 && own.stats.Registry().Counter(mcdb.MetricDeltaItersSkipped).Value() == 0 {
		res.problem("traced what-ifs skipped nothing (%s = 0)", mcdb.MetricDeltaItersSkipped)
	}
}

// traceBatch is the traced half of a traced batch_ooc run: jobs of
// every kind, each op under a request span with the engine call and —
// for reads — the equivalent bare colstore scan as children.
func traceBatch(ctx context.Context, res *result, f *ooc, orc *batchOracle, cfg runConfig, ref batchPhase, openMS, tail float64) error {
	layers(res)
	calib := []float64{calibrate()}
	t := newTracing(ctx, res.Workload)
	var pruneRatio []float64
	ph, err := f.runJobs(ctx, tracedBatchKinds, cfg.seconds/2, func(kind string, seq int) (out batchOut, err error) {
		err = t.request(kind, "", func(rctx context.Context) error {
			name := spanEngine
			if kind == kindWrite {
				name = spanWrite
			}
			if err := t.child(rctx, name, func() (err error) { out, err = f.do(t.plain, kind, seq); return err }); err != nil {
				return err
			}
			if kind == kindWrite {
				return nil
			}
			_, hint := f.query(t.plain, kind)
			var stats engine.ScanStats
			err := t.child(rctx, spanScan, func() (err error) { stats, err = f.drain(t.plain, hint); return err })
			if kind == kindScanPruned && stats.Partitions > 0 {
				pruneRatio = append(pruneRatio, 1-float64(stats.Scanned)/float64(stats.Partitions))
			}
			return err
		})
		return out, err
	})
	if err != nil {
		return err
	}
	calib = append(calib, calibrate())
	for _, out := range ph.outs {
		f.check(res, orc, out)
	}
	antiBypassBatch(res, ph.eng)
	res.Attempted += len(ph.outs)

	res.put("bench.latency_tail_ms", quantile(latenciesOf(ref.outs, ""), tail), len(ref.outs))
	for _, kn := range [][2]string{{kindWrite, "batch.write_mrows_s"}, {kindScanFull, "batch.scan_mrows_s"},
		{kindGroupBySpill, "batch.groupby_spill_mrows_s"}, {kindJoinSpill, "batch.join_spill_mrows_s"}} {
		xs := latenciesOf(ref.outs, kn[0])
		res.put(kn[1], f.mrows(median(xs)), len(xs))
	}
	for _, kn := range [][2]string{{kindGroupByMem, "engine.groupby_mem_mrows_s"}, {kindJoinMem, "engine.join_mem_mrows_s"}} {
		xs := latenciesOf(ph.outs, kn[0])
		res.put(kn[1], f.mrows(median(xs)), len(xs))
	}
	res.putMedian("colstore.scan_pruned_ms", latenciesOf(ph.outs, kindScanPruned))
	res.putMedian("colstore.prune_ratio", pruneRatio)
	res.put("colstore.open_ms", openMS, 0)
	spillOps := len(latenciesOf(ph.outs, kindGroupBySpill)) + len(latenciesOf(ph.outs, kindJoinSpill))
	res.put("colstore.spill_bytes_per_row", ratio(counter(ph.eng, engine.MetricSpillBytes), float64(spillOps*f.rows)), spillOps)
	res.put("colstore.spill_partitions", ratio(counter(ph.eng, engine.MetricSpillPartitions), float64(spillOps)), spillOps)
	res.put("colstore.spill_fallbacks", counter(ph.eng, engine.MetricSpillFallbacks), 0)
	res.put("engine.colfallback", counter(ph.eng, engine.MetricColFallback), 0)
	res.put("engine.rows_scanned_per_op", ratio(counter(ph.eng, engine.MetricRowsScanned), float64(len(ph.outs))), len(ph.outs))
	disk, err := dirBytes(filepath.Join(f.root, "segs"))
	if err != nil {
		return err
	}
	res.put("colstore.disk_bytes_per_row", float64(disk)/float64(f.rows), 0)

	an := t.analyse()
	// A full scan's bare colstore.scan decodes every row.
	decode := an.perOp(func(o tracedOp) (float64, bool) {
		return float64(o.children[spanScan].Nanoseconds()) / float64(f.rows), true
	}, kindScanFull)
	res.putMedian("colstore.decode_ns_per_row", decode)
	if err := probes(ctx, res, calib, an); err != nil {
		return err
	}
	if cfg.traceOut != "" {
		return t.tr.WriteChromeTraceFile(cfg.traceOut)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
