package main

// batch_ooc: one caller running scans, group-bys and joins through the
// engine over colstore segments, and writing such a store. server and
// mcdb do no work here.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"modeldata/internal/colstore"
	"modeldata/internal/engine"
	"modeldata/internal/engine/plan"
	"modeldata/internal/enginebench"
	"modeldata/internal/obs"
)

// Batch op kinds. Each passes over the whole fact relation except
// scan_pruned, which asks for 1 % of the clustered id range.
const (
	kindWrite        = "write"
	kindScanFull     = "scan_full"
	kindScanPruned   = "scan_pruned"
	kindGroupByMem   = "groupby_mem"
	kindGroupBySpill = "groupby_spill"
	kindJoinMem      = "join_mem"
	kindJoinSpill    = "join_spill"
)

// measuredBatchKinds make up one job of the measured phase; the traced
// pass runs tracedBatchKinds.
var (
	measuredBatchKinds = []string{kindWrite, kindScanFull, kindGroupBySpill, kindJoinSpill}
	tracedBatchKinds   = []string{kindWrite, kindScanFull, kindScanPruned,
		kindGroupByMem, kindGroupBySpill, kindJoinMem, kindJoinSpill}
)

// oocGroups is the gid domain of the enginebench fact relation.
const oocGroups = 1024

// ooc is the opened fixture.
type ooc struct {
	root string // holds segs/, spill/ and the write op's scratch stores
	rows int
	sz   sizes
	st   *colstore.Store
	dim  *engine.Table
}

// setupOOC writes the fact relation, opens it and builds the join
// dimension (rows/100 stride-distinct ids: each matches one fact row,
// and the build side is large enough to spill at the budget).
func setupOOC(root string, sz sizes) (*ooc, time.Duration, error) {
	segs := filepath.Join(root, "segs")
	if err := os.RemoveAll(root); err != nil {
		return nil, 0, err
	}
	if err := enginebench.BuildOOCStore(segs, sz.oocRows, sz.oocSegRows); err != nil {
		return nil, 0, fmt.Errorf("building the segment store: %w", err)
	}
	t0 := obs.Wall.Now()
	st, err := colstore.Open(segs, colstore.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("opening the segment store: %w", err)
	}
	opened := obs.Wall.Now().Sub(t0)
	n := sz.oocRows / 100
	if n < 1 {
		n = 1
	}
	dim := engine.MustNewTable("dim", engine.Schema{
		{Name: "jid", Type: engine.TypeInt},
		{Name: "label", Type: engine.TypeString},
	})
	for i := 0; i < n; i++ {
		dim.MustInsert(engine.Int(int64(i*100)), engine.Str(fmt.Sprintf("d%06d", i)))
	}
	return &ooc{root: root, rows: sz.oocRows, sz: sz, st: st, dim: dim}, opened, nil
}

var oocAggs = []engine.Aggregate{
	{Fn: engine.AggCount, As: "n"},
	{Fn: engine.AggSum, Col: "val", As: "sv"},
	{Fn: engine.AggMax, Col: "val", As: "mv"},
}

func (f *ooc) fullPred() plan.Expr {
	return plan.Cmp{Col: "val", Op: ">", Val: plan.FloatLit(0.99)}
}

func (f *ooc) prunedPred() plan.Between {
	lo := int64(f.rows / 2)
	return plan.Between{Col: "id", Lo: plan.IntLit(lo), Hi: plan.IntLit(lo + int64(f.rows/100))}
}

// batchOut is what one op produced, kept for verification.
type batchOut struct {
	kind  string
	lat   time.Duration
	count int           // scans, write (rows readable afterwards)
	table *engine.Table // group-bys and joins
}

// query builds the engine query of a read kind. hint is the pruning
// hint the engine will hand the store, for the traced colstore.scan.
func (f *ooc) query(ctx context.Context, kind string) (q *engine.Query, hint plan.Expr) {
	base := engine.FromStorage(f.st).WithContext(ctx)
	spill := func(q *engine.Query) *engine.Query {
		return q.WithMemoryBudget(f.sz.spillBudget).WithSpillDir(filepath.Join(f.root, "spill"))
	}
	switch kind {
	case kindScanFull:
		return base.WhereExpr(f.fullPred()), f.fullPred()
	case kindScanPruned:
		return base.WhereExpr(f.prunedPred()), f.prunedPred()
	case kindGroupByMem:
		return base.GroupBy([]string{"gid"}, oocAggs...), nil
	case kindGroupBySpill:
		return spill(base.GroupBy([]string{"gid"}, oocAggs...)), nil
	case kindJoinMem:
		return base.Join(f.dim, "id", "jid"), nil
	case kindJoinSpill:
		return spill(base.Join(f.dim, "id", "jid")), nil
	}
	return nil, nil
}

// do runs one op and times it. seq names the write op's scratch store.
func (f *ooc) do(ctx context.Context, kind string, seq int) (batchOut, error) {
	out := batchOut{kind: kind}
	if kind == kindWrite {
		dir := filepath.Join(f.root, fmt.Sprintf("w-%d", seq))
		t0 := obs.Wall.Now()
		err := enginebench.BuildOOCStore(dir, f.rows, f.sz.oocSegRows)
		out.lat = obs.Wall.Now().Sub(t0)
		if err != nil {
			return out, fmt.Errorf("write: %w", err)
		}
		// Reading it back and removing it are not part of the op.
		st, err := colstore.Open(dir, colstore.Options{})
		if err != nil {
			return out, fmt.Errorf("write: reopening: %w", err)
		}
		out.count = int(st.NumRows())
		return out, os.RemoveAll(dir)
	}
	q, _ := f.query(ctx, kind)
	t0 := obs.Wall.Now()
	var err error
	if kind == kindScanFull || kind == kindScanPruned {
		out.count, err = q.Count()
	} else {
		out.table, err = q.Run()
	}
	out.lat = obs.Wall.Now().Sub(t0)
	if err != nil {
		return out, fmt.Errorf("%s: %w", kind, err)
	}
	return out, nil
}

// drain scans the store exactly as the engine would for this hint, with
// no operator above it.
func (f *ooc) drain(ctx context.Context, hint plan.Expr) (engine.ScanStats, error) {
	it, err := f.st.ScanPartitions(ctx, nil, hint)
	if err != nil {
		return engine.ScanStats{}, err
	}
	for {
		b, err := it.Next()
		if err != nil {
			return engine.ScanStats{}, err
		}
		if b == nil {
			return it.Stats(), nil
		}
	}
}

// batchPhase is the outcome of running jobs of the given kinds.
type batchPhase struct {
	outs    []batchOut
	busy    time.Duration // Σ op latencies
	allocKB float64
	eng     obs.Snapshot // obs.Default() delta
}

// runJobs runs whole jobs until the cap or the deadline. each is called
// instead of f.do when set (the traced pass wraps ops in spans).
func (f *ooc) runJobs(ctx context.Context, kinds []string, seconds float64, each func(kind string, seq int) (batchOut, error)) (batchPhase, error) {
	if each == nil {
		each = func(kind string, seq int) (batchOut, error) { return f.do(ctx, kind, seq) }
	}
	runtime.GC()
	var ph batchPhase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := obs.Default().Snapshot()
	start := obs.Wall.Now()
	for job := 0; job < f.sz.batchJobs; job++ {
		for _, kind := range kinds {
			out, err := each(kind, job)
			if err != nil {
				return ph, err
			}
			ph.outs = append(ph.outs, out)
			ph.busy += out.lat
		}
		if seconds > 0 && obs.Wall.Now().Sub(start).Seconds() >= seconds {
			break
		}
	}
	ph.eng = obs.Default().Snapshot().Sub(before)
	runtime.ReadMemStats(&m1)
	ph.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	return ph, nil
}

// batchOracle holds the reference answers: a plain-loop count over the
// decoded partitions for the scan, closed forms for the pruned scan and
// the group count, and the unbudgeted runs for spill identity.
type batchOracle struct {
	scanFull   int
	groupByMem *engine.Table
	joinMem    *engine.Table
}

func (f *ooc) oracle(ctx context.Context, res *result) (*batchOracle, error) {
	o := &batchOracle{}
	it, err := f.st.ScanPartitions(ctx, []string{"val"}, nil)
	if err != nil {
		return nil, err
	}
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		vec, err := b.Dense().Vec(0)
		if err != nil {
			return nil, err
		}
		vals, ok := vec.([]float64)
		if !ok {
			return nil, fmt.Errorf("oracle: val column decoded as %T", vec)
		}
		for _, v := range vals {
			if v > 0.99 {
				o.scanFull++
			}
		}
	}
	g, err := f.do(ctx, kindGroupByMem, 0)
	if err != nil {
		return nil, err
	}
	j, err := f.do(ctx, kindJoinMem, 0)
	if err != nil {
		return nil, err
	}
	o.groupByMem, o.joinMem = g.table, j.table
	if got := o.groupByMem.Len(); got != oocGroups {
		res.problem("groupby_mem: %d groups, want %d", got, oocGroups)
	}
	if got := o.joinMem.Len(); got != f.dim.Len() {
		res.problem("join_mem: %d rows, want one per dimension row (%d)", got, f.dim.Len())
	}
	// The pruned scan must both answer its closed form and actually
	// prune; it runs here so an untraced run asserts it too.
	before := obs.Default().Snapshot()
	out, err := f.do(ctx, kindScanPruned, 0)
	if err != nil {
		return nil, err
	}
	f.check(res, o, out)
	if d := obs.Default().Snapshot().Sub(before); d.Counters[colstore.MetricBlocksPruned] == 0 {
		res.problem("scan_pruned pruned nothing (%s = 0)", colstore.MetricBlocksPruned)
	}
	return o, nil
}

// check verifies one op's answer; a wrong answer is a failed op.
func (f *ooc) check(res *result, o *batchOracle, out batchOut) {
	var err error
	switch out.kind {
	case kindWrite:
		if out.count != f.rows {
			err = fmt.Errorf("%d rows readable, want %d", out.count, f.rows)
		}
	case kindScanFull:
		if out.count != o.scanFull {
			err = fmt.Errorf("count %d, want %d", out.count, o.scanFull)
		}
	case kindScanPruned:
		if want := f.rows/100 + 1; out.count != want {
			err = fmt.Errorf("count %d, want the range width %d", out.count, want)
		}
	case kindGroupByMem, kindGroupBySpill:
		err = sameTable(out.table, o.groupByMem)
	case kindJoinMem, kindJoinSpill:
		err = sameTable(out.table, o.joinMem)
	}
	if err != nil {
		res.Failed++
		res.problem("failed op: %s: %v", out.kind, err)
	}
}

// sameTable compares two result tables value by value on the engine's
// binary key encoding (float bits, not float equality).
func sameTable(got, want *engine.Table) error {
	if got.Len() != want.Len() || len(got.Schema) != len(want.Schema) {
		return fmt.Errorf("result is %d×%d, want %d×%d", got.Len(), len(got.Schema), want.Len(), len(want.Schema))
	}
	var a, b []byte
	for i, row := range got.Rows {
		a, b = a[:0], b[:0]
		for j := range row {
			a = row[j].AppendKey(a)
			b = want.Rows[i][j].AppendKey(b)
		}
		if string(a) != string(b) {
			return fmt.Errorf("row %d differs from the unbudgeted run", i)
		}
	}
	return nil
}

// antiBypass carries over cmd/benchjson's assertions: the numbers mean
// nothing if the mechanism they measure did not run.
func antiBypassBatch(res *result, eng obs.Snapshot) {
	if eng.Counters[engine.MetricSpillPartitions] == 0 {
		res.problem("no spill happened (%s = 0)", engine.MetricSpillPartitions)
	}
	if n := eng.Counters[engine.MetricSpillFallbacks]; n != 0 {
		res.problem("%s = %d, want 0", engine.MetricSpillFallbacks, n)
	}
	if n := eng.Counters[engine.MetricColFallback]; n != 0 {
		res.problem("%s = %d, want 0", engine.MetricColFallback, n)
	}
}

func latenciesOf(outs []batchOut, kind string) []float64 {
	var xs []float64
	for _, o := range outs {
		if kind == "" || o.kind == kind {
			xs = append(xs, ms(o.lat))
		}
	}
	return xs
}

// mrows converts a pass over the fact relation in `millis` to 10⁶ rows/s.
func (f *ooc) mrows(millis float64) float64 { return float64(f.rows) / 1e3 / millis }

// runBatch is one run of batch_ooc, traced or not.
func runBatch(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Correct: true, Metrics: map[string]metric{}}
	root := filepath.Join(cfg.tmp, "ooc")
	var f *ooc
	var opens []float64
	setups, err := timedSetups(cfg.sz, func() error {
		var opened time.Duration
		var err error
		f, opened, err = setupOOC(root, cfg.sz)
		opens = append(opens, ms(opened))
		return err
	})
	if err != nil {
		return nil, err
	}
	orc, err := f.oracle(ctx, res)
	if err != nil {
		return nil, err
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	ph, err := f.runJobs(ctx, measuredBatchKinds, seconds, nil)
	if err != nil {
		return nil, err
	}
	for _, out := range ph.outs {
		f.check(res, orc, out)
	}
	antiBypassBatch(res, ph.eng)
	res.Attempted = len(ph.outs)
	if !cfg.trace {
		n := len(ph.outs)
		lat := latenciesOf(ph.outs, "")
		res.set("setup_s", median(setups), "s", len(setups))
		res.set("ops_per_s", float64(n-res.Failed)/ph.busy.Seconds(), "1/s", n)
		res.set("latency_p50_ms", quantile(lat, 0.5), "ms", n)
		res.set("alloc_kb_per_op", ph.allocKB/float64(n), "KiB", n)
		return res, nil
	}
	if err := traceBatch(ctx, res, f, orc, cfg, ph, median(opens), w.tail); err != nil {
		return nil, err
	}
	return res, nil
}
