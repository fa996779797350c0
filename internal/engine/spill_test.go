package engine

// Spill-to-disk equivalence: a Grace-partitioned join or group-by at a
// tiny memory budget must return byte-identical tables to the
// unlimited in-memory operators, trial after trial.

import (
	"fmt"
	"testing"

	"modeldata/internal/rng"
)

func TestSpillJoinEquivalence(t *testing.T) {
	r := rng.New(1201)
	for trial := 0; trial < 20; trial++ {
		tr := r.Split()
		left := randomTable(tr, "l", tr.Intn(120))
		right := &Table{Name: "r", Schema: Schema{
			{Name: "rid", Type: TypeInt},
			{Name: "label", Type: TypeString},
		}}
		// Duplicate keys on the build side exercise within-key ordering.
		for i := -3; i <= 3; i++ {
			for d := 0; d <= tr.Intn(3); d++ {
				right.Rows = append(right.Rows, Row{Int(int64(i)), Str(fmt.Sprintf("L%d.%d", i, d))})
			}
		}
		want, err := From(left).Join(right, "id", "rid").Run()
		if err != nil {
			t.Fatalf("trial %d unlimited: %v", trial, err)
		}
		got, err := From(left).Join(right, "id", "rid").
			WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
		if err != nil {
			t.Fatalf("trial %d spilled: %v", trial, err)
		}
		requireSameTable(t, fmt.Sprintf("trial %d spilled join", trial), want, got)
	}
}

func TestSpillGroupByEquivalence(t *testing.T) {
	r := rng.New(1301)
	aggs := []Aggregate{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "x", As: "sx"},
		{Fn: AggAvg, Col: "x", As: "ax"},
		{Fn: AggMin, Col: "id", As: "mid"},
		{Fn: AggMax, Col: "x", As: "mx"},
	}
	for trial := 0; trial < 20; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "g", tr.Intn(200))
		keys := [][]string{{"tag"}, {"tag", "flag"}, {"id"}}[tr.Intn(3)]
		want, err := From(tbl).GroupBy(keys, aggs...).Run()
		if err != nil {
			t.Fatalf("trial %d unlimited: %v", trial, err)
		}
		got, err := From(tbl).GroupBy(keys, aggs...).
			WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
		if err != nil {
			t.Fatalf("trial %d spilled: %v", trial, err)
		}
		requireSameTable(t, fmt.Sprintf("trial %d spilled group-by", trial), want, got)
	}
}

func TestSpillDeterministicAcrossRuns(t *testing.T) {
	r := rng.New(1409)
	tbl := randomTable(r, "d", 150)
	right := &Table{Name: "r", Schema: Schema{
		{Name: "rid", Type: TypeInt},
		{Name: "label", Type: TypeString},
	}}
	for i := -3; i <= 3; i++ {
		right.Rows = append(right.Rows, Row{Int(int64(i)), Str("a")})
		right.Rows = append(right.Rows, Row{Int(int64(i)), Str("b")})
	}
	first, err := From(tbl).Join(right, "id", "rid").
		WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	for i := 0; i < 3; i++ {
		again, err := From(tbl).Join(right, "id", "rid").
			WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		requireSameTable(t, fmt.Sprintf("rerun %d", i), first, again)
	}
}

func TestSpillKeylessGroupByNeverSpills(t *testing.T) {
	tbl := randomTable(rng.New(7), "k", 50)
	before := spillPartitions.Value()
	got, err := From(tbl).GroupBy(nil, Aggregate{Fn: AggCount, As: "n"}).
		WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run()
	if err != nil {
		t.Fatalf("keyless: %v", err)
	}
	if spillPartitions.Value() != before {
		t.Fatal("keyless group-by should not spill (single global group)")
	}
	if len(got.Rows) != 1 || got.Rows[0][0].AsInt() != 50 {
		t.Fatalf("keyless COUNT = %v", got.Rows)
	}
}

func TestSpillMetricsAccount(t *testing.T) {
	tbl := randomTable(rng.New(11), "m", 200)
	right := &Table{Name: "r", Schema: Schema{{Name: "rid", Type: TypeInt}}}
	for i := -3; i <= 3; i++ {
		right.Rows = append(right.Rows, Row{Int(int64(i))})
	}
	parts, bytes := spillPartitions.Value(), spillBytes.Value()
	if _, err := From(tbl).Join(right, "id", "rid").
		WithMemoryBudget(1).WithSpillDir(t.TempDir()).Run(); err != nil {
		t.Fatalf("spilled join: %v", err)
	}
	if spillPartitions.Value() <= parts {
		t.Fatal("colstore.spill_partitions did not advance")
	}
	if spillBytes.Value() <= bytes {
		t.Fatal("colstore.spill_bytes did not advance")
	}
}

func TestSpillBadDirFallsBack(t *testing.T) {
	tbl := randomTable(rng.New(13), "f", 100)
	right := &Table{Name: "r", Schema: Schema{{Name: "rid", Type: TypeInt}}}
	for i := -3; i <= 3; i++ {
		right.Rows = append(right.Rows, Row{Int(int64(i))})
	}
	want, err := From(tbl).Join(right, "id", "rid").Run()
	if err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	fb := spillFallbacks.Value()
	got, err := From(tbl).Join(right, "id", "rid").
		WithMemoryBudget(1).WithSpillDir("/dev/null/not-a-dir").Run()
	if err != nil {
		t.Fatalf("bad spill dir should fall back in-memory, got %v", err)
	}
	if spillFallbacks.Value() <= fb {
		t.Fatal("colstore.spill_fallbacks did not advance")
	}
	requireSameTable(t, "fallback join", want, got)
}

func TestSpillPartitionCount(t *testing.T) {
	cases := []struct {
		est, budget int64
		want        int
	}{
		{100, 1000, 2},    // fits after halving: floor of 2
		{1000, 100, 16},   // needs est/p <= budget
		{1 << 40, 1, 128}, // clamped at 128
	}
	for _, tc := range cases {
		if got := spillPartitionCount(tc.est, tc.budget); got != tc.want {
			t.Fatalf("spillPartitionCount(%d, %d) = %d, want %d", tc.est, tc.budget, got, tc.want)
		}
	}
}
