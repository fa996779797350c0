package engine

// Bridging between the engine's Value world and the plan package's
// serializable expression values, and compilation of plan.Expr filters
// into block predicates.

import (
	"fmt"

	"modeldata/internal/engine/plan"
)

// litOfValue converts an engine Value to a plan literal. Every Value
// has exactly one of the four scalar types, so this is total.
func litOfValue(v Value) plan.Lit {
	switch v.Type() {
	case TypeFloat:
		return plan.FloatLit(v.AsFloat())
	case TypeString:
		return plan.StringLit(v.AsString())
	case TypeBool:
		return plan.BoolLit(v.AsBool())
	default:
		return plan.IntLit(v.AsInt())
	}
}

// valOfLit converts a plan literal back to an engine Value. The round
// trip valOfLit(litOfValue(v)) reproduces v exactly, payload bits
// included.
func valOfLit(l plan.Lit) Value {
	switch l.Kind {
	case plan.LitFloat:
		return Float(l.F)
	case plan.LitString:
		return Str(l.S)
	case plan.LitBool:
		return Bool(l.B)
	default:
		return Int(l.I)
	}
}

// compileExprBlock compiles e into a logical-row predicate over the
// block. The six comparison operators and BETWEEN are compositions of
// compareAt's less and equal — BETWEEN is !v.Less(lo) && !hi.Less(v) —
// so NaN, ±0 and int-against-float order the same whether compareAt
// read a typed vector or built Values.
func compileExprBlock(e plan.Expr, b *ColumnBlock) (func(i int) bool, error) {
	switch t := e.(type) {
	case plan.And:
		l, err := compileExprBlock(t.L, b)
		if err != nil {
			return nil, err
		}
		r, err := compileExprBlock(t.R, b)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return l(i) && r(i) }, nil
	case plan.Or:
		l, err := compileExprBlock(t.L, b)
		if err != nil {
			return nil, err
		}
		r, err := compileExprBlock(t.R, b)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return l(i) || r(i) }, nil
	case plan.Not:
		inner, err := compileExprBlock(t.E, b)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return !inner(i) }, nil
	case plan.Between:
		idx, err := b.ColIndex(t.Col)
		if err != nil {
			return nil, err
		}
		ltLo, _, _ := compareAt(b, idx, valOfLit(t.Lo))
		_, gtHi, _ := compareAt(b, idx, valOfLit(t.Hi))
		return func(i int) bool { p := b.phys(i); return !ltLo(p) && !gtHi(p) }, nil
	case plan.Cmp:
		idx, err := b.ColIndex(t.Col)
		if err != nil {
			return nil, err
		}
		lt, gt, eq := compareAt(b, idx, valOfLit(t.Val))
		switch t.Op {
		case "=":
			return func(i int) bool { return eq(b.phys(i)) }, nil
		case "<>", "!=":
			return func(i int) bool { return !eq(b.phys(i)) }, nil
		case "<":
			return func(i int) bool { return lt(b.phys(i)) }, nil
		case "<=":
			return func(i int) bool { return !gt(b.phys(i)) }, nil
		case ">":
			return func(i int) bool { return gt(b.phys(i)) }, nil
		case ">=":
			return func(i int) bool { return !lt(b.phys(i)) }, nil
		}
		return nil, fmt.Errorf("engine: unknown comparison %q", t.Op)
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", e)
}

// compareAt returns the three comparisons of column j's value at a
// physical position against lit that every operator composes from: lt
// is v.Less(lit), gt is lit.Less(v), eq is v.Equal(lit). A numeric
// column against a numeric literal computes them on the typed vector —
// a mixed int/float pair exactly, through the helpers Value.Less and
// Value.Equal use themselves — so no Value is built per row; any other
// pairing calls Value.Less and Value.Equal.
func compareAt(b *ColumnBlock, j int, lit Value) (lt, gt, eq func(p int) bool) {
	switch typ := b.Schema[j].Type; {
	case typ == TypeFloat && lit.typ == TypeFloat:
		v, x := b.cols[j].floats, lit.f()
		return func(p int) bool { return v[p] < x },
			func(p int) bool { return x < v[p] },
			func(p int) bool { return v[p] == x } // Value.Equal on two floats is exact ==
	case typ == TypeFloat && lit.typ == TypeInt:
		v, x := b.cols[j].floats, lit.i()
		return func(p int) bool { return floatLessInt(v[p], x) },
			func(p int) bool { return intLessFloat(x, v[p]) },
			func(p int) bool { return floatEqualsInt(v[p], x) }
	case typ == TypeInt && lit.typ == TypeInt:
		v, x := b.cols[j].ints, lit.i()
		return func(p int) bool { return v[p] < x },
			func(p int) bool { return x < v[p] },
			func(p int) bool { return v[p] == x }
	case typ == TypeInt && lit.typ == TypeFloat:
		v, x := b.cols[j].ints, lit.f()
		return func(p int) bool { return intLessFloat(v[p], x) },
			func(p int) bool { return floatLessInt(x, v[p]) },
			func(p int) bool { return floatEqualsInt(x, v[p]) }
	}
	return func(p int) bool { return b.valuePhys(p, j).Less(lit) },
		func(p int) bool { return lit.Less(b.valuePhys(p, j)) },
		func(p int) bool { return b.valuePhys(p, j).Equal(lit) }
}

// validateExprCols checks that every column e references resolves in
// the schema, returning the first resolution error (the same error the
// eager execution path would have produced).
func validateExprCols(e plan.Expr, schema Schema) error {
	for _, c := range plan.Columns(e) {
		if _, err := schema.ColIndex(c); err != nil {
			return err
		}
	}
	return nil
}
