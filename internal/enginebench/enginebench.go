// Package enginebench builds deterministic micro-benchmark workloads
// for the relational engine's operators. The same Workload definitions
// back both the `go test -bench` benchmarks
// (internal/engine/bench_test.go) and the cmd/benchjson trajectory
// recorder, so the numbers in BENCH_9.json measure exactly the code the
// benchmarks do.
package enginebench

import (
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/engine/plan"
	"modeldata/internal/rng"
)

// Sizes are the row counts every operator workload is generated at.
var Sizes = []int{10_000, 100_000}

// Workload is one operator micro-benchmark: Run executes the operator
// once over a pre-built decoded block, so an iteration measures
// operator execution, not data generation or boundary conversion. One
// reusable Scratch is threaded through all iterations, the way a query
// plan would.
type Workload struct {
	Op   string // Select, EquiJoin, GroupBy, Distinct
	Rows int
	Run  func()
}

// Name returns the canonical benchmark label, e.g. "EquiJoin/100000".
func (w Workload) Name() string { return fmt.Sprintf("%s/%d", w.Op, w.Rows) }

// events builds the probe-side fact table: a small-domain int group
// key, a float measure, a small-domain string tag, and a bool flag.
func events(r *rng.Stream, n int) *engine.Table {
	t := &engine.Table{Name: "events", Schema: engine.Schema{
		{Name: "gid", Type: engine.TypeInt},
		{Name: "val", Type: engine.TypeFloat},
		{Name: "tag", Type: engine.TypeString},
		{Name: "flag", Type: engine.TypeBool},
	}}
	t.Rows = make([]engine.Row, 0, n)
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, engine.Row{
			engine.Int(int64(r.Intn(64))),
			engine.Float(r.Float64()),
			engine.Str(fmt.Sprintf("t%02d", r.Intn(16))),
			engine.Bool(r.Bool(0.5)),
		})
	}
	return t
}

// dims builds the small build-side reference table: 64 rows keyed by
// gid, so EquiJoin exercises the small-build-side path.
func dims() *engine.Table {
	t := &engine.Table{Name: "dims", Schema: engine.Schema{
		{Name: "gid", Type: engine.TypeInt},
		{Name: "name", Type: engine.TypeString},
	}}
	for i := 0; i < 64; i++ {
		t.Rows = append(t.Rows, engine.Row{engine.Int(int64(i)), engine.Str(fmt.Sprintf("g%02d", i))})
	}
	return t
}

func mustBlock(t *engine.Table) *engine.ColumnBlock {
	b, err := engine.FromTable(t)
	if err != nil {
		panic(err)
	}
	return b
}

// Workloads builds every operator workload at every size. Generation is
// seeded through internal/rng, so the data — and therefore the work — is
// identical on every run.
func Workloads() []Workload {
	var out []Workload
	r := rng.New(0x5eed)
	dim := dims()
	dimBlock := mustBlock(dim)
	for _, n := range Sizes {
		ev := events(r.Split(), n)
		evBlock := mustBlock(ev)
		sc := engine.NewScratch()

		pred := func(f float64) bool { return f < 0.5 }
		out = append(out, Workload{
			Op: "Select", Rows: n,
			Run: func() {
				if _, err := evBlock.WhereFloat("val", pred); err != nil {
					panic(err)
				}
			},
		})

		out = append(out, Workload{
			Op: "EquiJoin", Rows: n,
			Run: func() {
				if _, err := evBlock.EquiJoin(dimBlock, "gid", "gid", sc); err != nil {
					panic(err)
				}
			},
		})

		keys := []string{"gid"}
		aggs := []engine.Aggregate{
			{Fn: engine.AggCount, As: "n"},
			{Fn: engine.AggSum, Col: "val", As: "s"},
			{Fn: engine.AggMin, Col: "val", As: "mn"},
		}
		out = append(out, Workload{
			Op: "GroupBy", Rows: n,
			Run: func() {
				if _, err := evBlock.GroupBy(keys, aggs, sc); err != nil {
					panic(err)
				}
			},
		})

		// Distinct runs over a projection with heavy duplication (64×16×2
		// distinct combinations), the shape DISTINCT exists for.
		projBlock, err := evBlock.Project("gid", "tag", "flag")
		if err != nil {
			panic(err)
		}
		out = append(out, Workload{
			Op: "Distinct", Rows: n,
			Run: func() { projBlock.Distinct(sc) },
		})
	}
	return out
}

// PlannerWorkload is one join-heavy query benchmarked with the cost-
// based planner off (written order, the historical execution) and on.
// Both closures produce byte-identical results; the difference is
// purely plan choice.
type PlannerWorkload struct {
	Op   string
	Rows int
	Off  func()
	On   func()
}

// Name returns the canonical benchmark label, e.g. "Join3/100000".
func (w PlannerWorkload) Name() string { return fmt.Sprintf("%s/%d", w.Op, w.Rows) }

// medDims builds a 512-row dimension with fan-out 8 per gid, so the
// written-order join through it multiplies the intermediate by 8.
func medDims() *engine.Table {
	t := &engine.Table{Name: "med", Schema: engine.Schema{
		{Name: "gid", Type: engine.TypeInt},
		{Name: "name", Type: engine.TypeString},
	}}
	for i := 0; i < 512; i++ {
		t.Rows = append(t.Rows, engine.Row{
			engine.Int(int64(i % 64)),
			engine.Str(fmt.Sprintf("g%03d", i)),
		})
	}
	return t
}

// tinyDim is a one-row dimension matching 1/16 of the fact table's
// tags — the join a cost-based planner must run first.
func tinyDim() *engine.Table {
	t := &engine.Table{Name: "tiny", Schema: engine.Schema{
		{Name: "tag", Type: engine.TypeString},
		{Name: "label", Type: engine.TypeString},
	}}
	t.Rows = append(t.Rows, engine.Row{engine.Str("t03"), engine.Str("the-one")})
	return t
}

// PlannerWorkloads builds the planner-off vs planner-on benchmark
// queries. The written join order is deliberately bad: events ⋈ med
// (fan-out 8) first, the selective events ⋈ tiny (keeps 1/16) last.
// A cost-based order joins tiny first, shrinking every intermediate
// 128-fold; Join3Filtered additionally carries a predicate written
// above the first join that pushdown moves onto the events scan.
func PlannerWorkloads() []PlannerWorkload {
	var out []PlannerWorkload
	r := rng.New(0x91a7)
	med := medDims()
	tiny := tinyDim()
	run := func(q *engine.Query, on bool) func() {
		q = q.WithPlanner(on)
		return func() {
			if _, err := q.Run(); err != nil {
				panic(err)
			}
		}
	}
	for _, n := range Sizes {
		ev := events(r.Split(), n)

		q3 := engine.From(ev).
			Join(med, "gid", "gid").
			Join(tiny, "events.tag", "tag")
		out = append(out, PlannerWorkload{
			Op: "Join3", Rows: n,
			Off: run(q3, false),
			On:  run(q3, true),
		})

		qf := engine.From(ev).
			Join(med, "gid", "gid").
			WhereExpr(plan.Cmp{Op: "<", Col: "events.val", Val: plan.FloatLit(0.25)}).
			Join(tiny, "events.tag", "tag")
		out = append(out, PlannerWorkload{
			Op: "Join3Filtered", Rows: n,
			Off: run(qf, false),
			On:  run(qf, true),
		})
	}
	return out
}
