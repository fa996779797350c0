package engine

import (
	"math"
	"testing"

	"modeldata/internal/engine/plan"
)

// Int64 exactness regression tests. float64 has 53 mantissa bits, so
// distinct int64 values above 2^53 can round to the same float64; the
// engine must nonetheless treat them as distinct keys and compare them
// without precision loss.

const two53 = int64(1) << 53 // 9007199254740992, the first gap

func TestLargeInt64KeysAreDistinct(t *testing.T) {
	// 2^53 and 2^53+1 round to the same float64 — the original bug
	// collapsed them into one join/group key.
	pairs := [][2]int64{
		{two53, two53 + 1},
		{-two53, -two53 - 1},
		{math.MaxInt64, math.MaxInt64 - 1},
		{math.MinInt64, math.MinInt64 + 1},
	}
	for _, p := range pairs {
		if Int(p[0]).Key() == Int(p[1]).Key() {
			t.Errorf("Int(%d) and Int(%d) share key %q", p[0], p[1], Int(p[0]).Key())
		}
	}
	// Representable ints still share keys with their float twins so
	// cross-type numeric joins keep working.
	if Int(two53).Key() != Float(float64(two53)).Key() {
		t.Fatal("exactly representable int lost its float key")
	}
	if Int(3).Key() != Float(3).Key() {
		t.Fatal("small numeric keys should match")
	}
}

func TestKeyEqualityCoincidesWithEqual(t *testing.T) {
	vals := []Value{
		Int(two53), Int(two53 + 1), Int(two53 + 2),
		Int(-two53), Int(-two53 - 1),
		Int(math.MaxInt64), Int(math.MinInt64),
		Int(0), Int(3),
		Float(float64(two53)), Float(float64(two53) + 2), Float(3), Float(3.5),
	}
	for _, a := range vals {
		for _, b := range vals {
			if (a.Key() == b.Key()) != a.Equal(b) {
				t.Errorf("Key/Equal disagree for %v vs %v: keys %q/%q equal=%v",
					a, b, a.Key(), b.Key(), a.Equal(b))
			}
		}
	}
}

func TestEqualExactAt2p53Boundary(t *testing.T) {
	if !Int(two53 + 1).Equal(Int(two53 + 1)) {
		t.Fatal("int self-equality lost")
	}
	if Int(two53 + 1).Equal(Int(two53)) {
		t.Fatal("distinct large ints compare equal")
	}
	// float64(2^53+1) rounds to 2^53: the mixed comparison must not.
	if Int(two53 + 1).Equal(Float(float64(two53))) {
		t.Fatal("Int(2^53+1) equals Float(2^53) via rounding")
	}
	if !Int(two53).Equal(Float(float64(two53))) {
		t.Fatal("exact mixed equality at 2^53 lost")
	}
	if Int(math.MaxInt64).Equal(Float(9.223372036854776e18)) {
		// 2^63 is out of int64 range; no int64 equals it.
		t.Fatal("MaxInt64 equals out-of-range float")
	}
	if Int(3).Equal(Float(3.5)) || !Int(3).Equal(Float(3)) {
		t.Fatal("small mixed equality broken")
	}
}

func TestLessExactAt2p53Boundary(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(two53), Int(two53 + 1), true},
		{Int(two53 + 1), Int(two53), false},
		{Int(-two53 - 1), Int(-two53), true},
		// float64(2^53+1) == 2^53.0, but the int is strictly greater.
		{Int(two53 + 1), Float(float64(two53)), false},
		{Float(float64(two53)), Int(two53 + 1), true},
		{Int(two53), Float(float64(two53)), false}, // equal, not less
		// Fractions just above an integer.
		{Int(5), Float(5.5), true},
		{Float(5.5), Int(6), true},
		{Float(5.5), Int(5), false},
		// Out-of-range floats bracket every int64.
		{Int(math.MaxInt64), Float(1e19), true},
		{Float(1e19), Int(math.MaxInt64), false},
		{Int(math.MinInt64), Float(-1e19), false},
		{Float(-1e19), Int(math.MinInt64), true},
		// NaN is neither less nor greater.
		{Int(0), Float(math.NaN()), false},
		{Float(math.NaN()), Int(0), false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestEquiJoinLargeInt64Keys is the end-to-end regression: joining on
// int64 IDs above 2^53 must match exact IDs only, not float64-rounded
// neighbors.
func TestEquiJoinLargeInt64Keys(t *testing.T) {
	left := MustNewTable("l", Schema{
		{Name: "id", Type: TypeInt},
		{Name: "tag", Type: TypeString},
	})
	left.MustInsert(Int(two53), Str("a"))
	left.MustInsert(Int(two53+1), Str("b"))
	left.MustInsert(Int(two53+2), Str("c"))
	right := MustNewTable("r", Schema{
		{Name: "rid", Type: TypeInt},
		{Name: "val", Type: TypeFloat},
	})
	right.MustInsert(Int(two53+1), Float(1))
	right.MustInsert(Int(two53+3), Float(2))

	out, err := From(left).Join(right, "id", "rid").Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("join produced %d rows, want 1 (rounded keys matched)", out.Len())
	}
	if out.Rows[0][1].AsString() != "b" {
		t.Fatalf("joined wrong row: %v", out.Rows[0])
	}
}

func TestGroupByLargeInt64Keys(t *testing.T) {
	tbl := MustNewTable("t", Schema{
		{Name: "id", Type: TypeInt},
		{Name: "x", Type: TypeFloat},
	})
	tbl.MustInsert(Int(two53), Float(1))
	tbl.MustInsert(Int(two53+1), Float(2))
	tbl.MustInsert(Int(two53), Float(3))
	out, err := From(tbl).GroupBy([]string{"id"}, Aggregate{Fn: AggCount, Col: "x", As: "n"}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("grouped into %d groups, want 2", out.Len())
	}
}

func TestDistinctLargeInt64(t *testing.T) {
	tbl := MustNewTable("t", Schema{{Name: "id", Type: TypeInt}})
	tbl.MustInsert(Int(two53))
	tbl.MustInsert(Int(two53 + 1))
	tbl.MustInsert(Int(two53))
	if got := From(tbl).Distinct().MustRun().Len(); got != 2 {
		t.Fatalf("distinct kept %d rows, want 2", got)
	}
}

// TestQueryBranching pins the copy-on-branch builder semantics: a saved
// prefix can feed several derived queries without being mutated.
func TestQueryBranching(t *testing.T) {
	tbl := MustNewTable("person", Schema{
		{Name: "pid", Type: TypeInt},
		{Name: "age", Type: TypeInt},
	})
	tbl.MustInsert(Int(1), Int(3))
	tbl.MustInsert(Int(2), Int(34))
	tbl.MustInsert(Int(3), Int(4))
	tbl.MustInsert(Int(4), Int(61))

	base := From(tbl).WhereExpr(plan.Cmp{Op: ">=", Col: "age", Val: plan.IntLit(18)})

	// Branch 1: project to pid.
	ids, err := base.Select("pid").Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids.Schema) != 1 || ids.Len() != 2 {
		t.Fatalf("projected branch: %d cols × %d rows", len(ids.Schema), ids.Len())
	}
	// Branch 2: the prefix still has both columns and both rows.
	n, err := base.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("prefix count = %d after branching, want 2", n)
	}
	full, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Schema) != 2 {
		t.Fatalf("prefix schema narrowed to %d cols by a branch", len(full.Schema))
	}
	// Branch 3: a second filter stacks on the same prefix independently.
	old, err := base.WhereExpr(plan.Cmp{Op: ">", Col: "age", Val: plan.IntLit(40)}).Count()
	if err != nil {
		t.Fatal(err)
	}
	if old != 1 {
		t.Fatalf("second branch count = %d, want 1", old)
	}
	// Error latching stays per-branch: a bad column poisons only its
	// branch.
	if _, err := base.Select("nope").Run(); err == nil {
		t.Fatal("bad column did not error")
	}
	if _, err := base.Run(); err != nil {
		t.Fatalf("error leaked into the shared prefix: %v", err)
	}
}
