package mcdb

// Lineage-driven delta execution. A what-if experiment — "re-run
// this query with one customer segment's demand scaled by 1.1" — does
// not need to pay for a full Monte Carlo run: the baseline bundle
// realization already records, per tuple and per iteration, every value
// the query could read. ExecDelta maps the realized values of only the
// tuples the change touches, comparing each mapped value with the
// realized one to find the iterations whose samples can differ. Clean
// iterations reuse the baseline sample verbatim; only dirty ones are
// re-aggregated. The dirtiness test is a value comparison restricted to
// the query's lineage — the tuples that pass WhereDet — which is the
// same per-iteration provenance ExecLineage reports.

import (
	"context"
	"encoding/binary"
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
)

// Metric names reported by delta execution into the per-run registry.
const (
	// MetricDeltaItersSkipped counts Monte Carlo iterations whose
	// samples ExecDelta reused from the baseline bundles instead of
	// recomputing — the saving of delta execution.
	MetricDeltaItersSkipped = "mcdb.delta_iters_skipped"
	// MetricDeltaTuplesRerealized counts tuples whose realized values a
	// delta's MapUnc re-mapped — which skips the ones the query's
	// WhereDet rejects.
	MetricDeltaTuplesRerealized = "mcdb.delta_tuples_rerealized"
)

// Delta describes a hypothetical change to one stochastic table: a
// MapUnc transform applied to the realized uncertain values of the
// tuples Where selects. No VG is called and no stream is drawn, so the
// changed world is the baseline realization with those values mapped.
type Delta struct {
	// Table names the stochastic table the change applies to.
	Table string
	// Where selects the affected tuples by their deterministic
	// attributes (uncertain positions hold zero Values). A nil Where
	// affects every tuple.
	Where func(det engine.Row) bool
	// MapUnc transforms a tuple's realized uncertain values in place
	// (ordered as the spec's UncertainCols), once per iteration — e.g.
	// scale a demand column by 1.1. It is required.
	MapUnc func(det engine.Row, unc []float64)
}

// ExecDelta answers q against the database as modified by d, reusing
// the baseline bundle realization wherever the change cannot have
// altered the answer. The returned samples are bit-identical to
// registering a spec whose VG applies d.MapUnc to the tuples d.Where
// selects in a fresh DB and running Exec with the same options — at any
// worker count — because the changed values are the baseline's, mapped.
// Iterations whose samples were reused are counted under
// MetricDeltaItersSkipped; re-mapped tuples under
// MetricDeltaTuplesRerealized.
func (s *Session) ExecDelta(ctx context.Context, q AggQuery, opts ExecOptions, d Delta) ([]float64, error) {
	return s.ExecDeltaRange(ctx, q, opts, d, 0, opts.Iterations)
}

// ExecDeltaRange is ExecDelta restricted to the iteration window
// [lo, hi) — the sharding primitive, with the same concatenation
// bit-identity guarantee as ExecRange. The re-mapping and the dirtiness
// test cover the full Iterations run, so every shard reports the
// full-run values of both counters; what a shard keeps is window-sized:
// the changed world holds only the window's mapped values, and
// aggregation, baseline and dirty alike, runs over the window alone.
func (s *Session) ExecDeltaRange(ctx context.Context, q AggQuery, opts ExecOptions, d Delta, lo, hi int) ([]float64, error) {
	if _, _, err := s.db.checkQuery(q, opts, lo, hi, true); err != nil {
		return nil, err
	}
	if _, err := s.db.Spec(d.Table); err != nil {
		return nil, err
	}
	if d.MapUnc == nil {
		return nil, fmt.Errorf("%w: delta on %q has no MapUnc", ErrBadQuery, d.Table)
	}

	ctx, span := obs.Start(ctx, "mcdb.exec_delta")
	span.SetAttr("table", q.Table)
	span.SetAttr("delta_table", d.Table)
	span.SetInt("iterations", int64(opts.Iterations))
	defer span.End()

	oldBt, err := s.bundleFor(ctx, opts, q.Table)
	if err != nil {
		return nil, err
	}
	reg := parallel.StatsFrom(ctx).Registry()
	win := iterRun{lo, hi}

	if d.Table != q.Table {
		// The change touches a different stochastic table, so this
		// query's bundle — and every sample — is untouched.
		reg.Counter(MetricDeltaItersSkipped).Add(int64(opts.Iterations))
		span.SetInt("iters_skipped", int64(opts.Iterations))
		return oldBt.estimate(q, win, []iterRun{win})
	}

	// A MapUnc never changes Det, so a tuple q.WhereDet rejects stays
	// out of the query's sight in the changed world too: it can neither
	// dirty an iteration nor reach an aggregate (the kernel's WhereDet
	// test), and is not re-mapped.
	affected := make([]int, 0, len(oldBt.Det))
	for ti, det := range oldBt.Det {
		if (d.Where == nil || d.Where(det)) && (q.WhereDet == nil || q.WhereDet(det)) {
			affected = append(affected, ti)
		}
	}
	newBt, dirty, dirtyCount := changedWindow(oldBt, d.MapUnc, affected, win)
	reg.Counter(MetricDeltaTuplesRerealized).Add(int64(len(affected)))
	span.SetInt("tuples_rerealized", int64(len(affected)))

	skipped := opts.Iterations - dirtyCount
	reg.Counter(MetricDeltaItersSkipped).Add(int64(skipped))
	span.SetInt("iters_skipped", int64(skipped))

	if skipped == 0 {
		return newBt.estimate(q, win, []iterRun{win})
	}
	// Clean iterations keep the baseline's samples; the dirty ones are
	// re-aggregated over the changed world by the same kernel — both
	// inside the window only.
	out, err := oldBt.estimate(q, win, []iterRun{win})
	if err != nil {
		return nil, err
	}
	if runs := runsOf(dirty, win); len(runs) > 0 {
		dvals, err := newBt.estimate(q, win, runs)
		if err != nil {
			return nil, err
		}
		for _, r := range runs {
			copy(out[r.lo-lo:r.hi-lo], dvals[r.lo-lo:r.hi-lo])
		}
	}
	return out, nil
}

// changedWindow is the changed world of one table as far as the window
// win needs it, and which iterations of the full run the change
// dirties, with their count. One pass per affected tuple maps its
// realized values at every iteration of the run — mapUnc is called
// once per iteration, nothing is drawn — compares them with the
// realized ones, and keeps the mapped values inside win only. The
// world is a window view (off is win.lo) sharing the baseline's Det
// and, for every unaffected tuple, the baseline's win slices. An
// iteration is dirty where some affected tuple's values changed:
// bitwise equality decides reuse, since if every value an iteration can
// read is unchanged, the aggregate (accumulated in the same tuple
// order) is unchanged too.
func changedWindow(old *BundleTable, mapUnc func(det engine.Row, unc []float64), affected []int, win iterRun) (*BundleTable, []bool, int) {
	ncols, n := len(old.UncertainCols), win.hi-win.lo
	view := &BundleTable{Name: old.Name, Schema: old.Schema, Iters: old.Iters, UncertainCols: old.UncertainCols,
		Det: old.Det, Unc: make([][][]float64, len(old.Unc)), off: win.lo}
	cols := make([][]float64, len(old.Unc)*ncols) // every tuple's window slices, on one array
	for ti, unc := range old.Unc {
		view.Unc[ti] = cols[ti*ncols : (ti+1)*ncols : (ti+1)*ncols]
		for k, vals := range unc {
			view.Unc[ti][k] = vals[win.lo:win.hi]
		}
	}
	mapped := vgBuffer(len(affected)*ncols, n)
	dirty := make([]bool, old.Iters)
	count := 0
	buf := make([]float64, ncols)
	for a, ti := range affected {
		src, dst := old.Unc[ti], mapped[a*ncols:(a+1)*ncols]
		for it := range dirty {
			for k := range buf {
				buf[k] = src[k][it]
			}
			mapUnc(old.Det[ti], buf)
			for k, v := range buf {
				if v != src[k][it] && !dirty[it] { // bitwise sameness is exactly what decides sample reuse
					dirty[it] = true
					count++
				}
				if it >= win.lo && it < win.hi {
					dst[k][it-win.lo] = v
				}
			}
		}
		copy(view.Unc[ti], dst)
	}
	return view, dirty, count
}

// runsOf renders the iterations of win that flags marks as their
// maximal runs.
func runsOf(flags []bool, win iterRun) []iterRun {
	var runs []iterRun
	for it := win.lo; it < win.hi; it++ {
		if flags[it] {
			lo := it
			for it < win.hi && flags[it] {
				it++
			}
			runs = append(runs, iterRun{lo, it})
		}
	}
	return runs
}

// ExecLineage returns, for every Monte Carlo iteration of q, the
// why-provenance of that iteration's sample: the ascending indexes, in
// the realized table, of the tuples that passed both predicates and
// therefore contributed to the aggregate. Sets are interned, so
// iterations with identical lineage share one slice, and an iteration
// with no contributors gets an empty, non-nil one. This is the set
// ExecDelta's dirty-iteration test restricts its value comparison to.
func (s *Session) ExecLineage(ctx context.Context, q AggQuery, opts ExecOptions) ([][]int, error) {
	if _, _, err := s.db.checkQuery(q, opts, 0, opts.Iterations, true); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "mcdb.lineage")
	span.SetAttr("table", q.Table)
	span.SetInt("iterations", int64(opts.Iterations))
	defer span.End()
	bt, err := s.bundleFor(ctx, opts, q.Table)
	if err != nil {
		return nil, err
	}
	// The kernel's selection, tuple by tuple over every iteration; then
	// per iteration its set of passing tuples, ascending and interned.
	iters := bt.Iters
	passed := make([]bool, bt.Len()*iters) // tuple ti passes at iteration it: passed[ti*iters+it]
	all := iterRun{0, iters}
	sel := newSelector(q, len(bt.UncertainCols), []iterRun{all})
	for ti, det := range bt.Det {
		if q.WhereDet != nil && !q.WhereDet(det) {
			continue
		}
		row := passed[ti*iters : (ti+1)*iters]
		if sel == nil {
			for it := range row {
				row[it] = true
			}
			continue
		}
		for _, j := range sel.pass(det, bt.Unc[ti], all) {
			row[j] = true
		}
	}
	memo := make(map[string][]int) // varint-encoded rows -> interned set
	out := make([][]int, iters)
	rows := make([]int, 0, bt.Len())
	var key []byte
	for it := range out {
		rows, key = rows[:0], key[:0]
		for ti := range bt.Det {
			if passed[ti*iters+it] {
				rows = append(rows, ti)
				key = binary.AppendUvarint(key, uint64(ti))
			}
		}
		set, ok := memo[string(key)]
		if !ok {
			set = append(make([]int, 0, len(rows)), rows...)
			memo[string(key)] = set
		}
		out[it] = set
	}
	return out, nil
}
