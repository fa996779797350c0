package engine

// compareAt's typed comparisons against the boxed form they replaced:
// build a Value per row and ask Value.Less and Value.Equal. The boxed
// form lives here only, as the reference; the values are the ones on
// which a float compare and an exact int-against-float compare can
// disagree.

import (
	"fmt"
	"math"
	"testing"

	"modeldata/internal/engine/plan"
)

// boxedCompare is the six operators as compositions of Value.Less and
// Value.Equal — the compositions compileExprBlock used per row.
func boxedCompare(op string, v, lit Value) bool {
	switch op {
	case "=":
		return v.Equal(lit)
	case "<>", "!=":
		return !v.Equal(lit)
	case "<":
		return v.Less(lit)
	case "<=":
		return !lit.Less(v)
	case ">":
		return lit.Less(v)
	case ">=":
		return !v.Less(lit)
	}
	panic("unknown operator " + op)
}

func TestTypedPredicatesMatchBoxedValues(t *testing.T) {
	const big = int64(1) << 53
	floats := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0.99, 1, -1,
		float64(big), float64(big) + 2, -float64(big) - 2, math.MaxInt64, math.MinInt64,
	}
	ints := []int64{
		0, 1, -1, big, big + 1, big + 2, -big - 1, -big - 2,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
	}
	tbl := MustNewTable("v", Schema{{Name: "f", Type: TypeFloat}, {Name: "i", Type: TypeInt}})
	for k := 0; k < len(floats)*len(ints); k++ {
		tbl.MustInsert(Float(floats[k%len(floats)]), Int(ints[k/len(floats)]))
	}
	var lits []plan.Lit
	for _, f := range floats {
		lits = append(lits, plan.FloatLit(f))
	}
	for _, i := range ints {
		lits = append(lits, plan.IntLit(i))
	}

	check := func(name string, e plan.Expr, keep func(Row) bool) {
		t.Helper()
		got, err := From(tbl).WhereExpr(e).Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := &Table{Name: tbl.Name, Schema: tbl.Schema}
		for _, r := range tbl.Rows {
			if keep(r) {
				want.Rows = append(want.Rows, r)
			}
		}
		requireSameTable(t, name, want, got)
	}
	for j, col := range []string{"f", "i"} {
		for _, lit := range lits {
			for _, op := range []string{"=", "<>", "!=", "<", "<=", ">", ">="} {
				check(fmt.Sprintf("%s %s %v", col, op, lit), plan.Cmp{Col: col, Op: op, Val: lit},
					func(r Row) bool { return boxedCompare(op, r[j], valOfLit(lit)) })
			}
			for _, hi := range lits {
				check(fmt.Sprintf("%s BETWEEN %v AND %v", col, lit, hi), plan.Between{Col: col, Lo: lit, Hi: hi},
					func(r Row) bool { return !r[j].Less(valOfLit(lit)) && !valOfLit(hi).Less(r[j]) })
			}
		}
	}
}

// A numeric comparison is compiled onto the typed vector: evaluating it
// builds no Value and allocates nothing per row.
func TestTypedPredicateDoesNotAllocatePerRow(t *testing.T) {
	const rows = 1 << 14
	fs := make([]float64, rows)
	for i := range fs {
		fs[i] = float64(i%100) / 100
	}
	b, err := BlockOf("p", Schema{{Name: "val", Type: TypeFloat}}, []any{fs})
	if err != nil {
		t.Fatal(err)
	}
	op := &qop{kind: opFilter, expr: plan.Cmp{Col: "val", Op: ">", Val: plan.FloatLit(0.985)}}
	allocs := testing.AllocsPerRun(10, func() {
		nb, err := filterBlock(b, op.expr)
		if err != nil || nb.Len() != rows/100 {
			t.Fatalf("filter kept %d rows (%v), want %d", nb.Len(), err, rows/100)
		}
	})
	// Closures, the selection vector's doublings, the result block.
	if allocs > 24 {
		t.Fatalf("filtering %d rows allocated %.0f times", rows, allocs)
	}
}
