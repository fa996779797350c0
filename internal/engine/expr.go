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

// predFns recovers the opaque closures referenced by plan.ColPred
// nodes; the Query implements it over its recorded ops.
type predFns interface {
	colPredFns(ref int) (ffn func(float64) bool, sfn func(string) bool)
}

// compileExprBlock compiles e into a logical-row predicate over the
// block. Values are read through the block (allocation-free
// reconstruction) and compared with Value.Equal/Less; BETWEEN is
// !v.Less(lo) && !hi.Less(v); float predicates see only numeric values,
// string predicates only strings.
func compileExprBlock(e plan.Expr, b *ColumnBlock, fns predFns) (func(i int) bool, error) {
	switch t := e.(type) {
	case plan.And:
		l, err := compileExprBlock(t.L, b, fns)
		if err != nil {
			return nil, err
		}
		r, err := compileExprBlock(t.R, b, fns)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return l(i) && r(i) }, nil
	case plan.Or:
		l, err := compileExprBlock(t.L, b, fns)
		if err != nil {
			return nil, err
		}
		r, err := compileExprBlock(t.R, b, fns)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return l(i) || r(i) }, nil
	case plan.Not:
		inner, err := compileExprBlock(t.E, b, fns)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return !inner(i) }, nil
	case plan.Between:
		idx, err := b.ColIndex(t.Col)
		if err != nil {
			return nil, err
		}
		lo, hi := valOfLit(t.Lo), valOfLit(t.Hi)
		return func(i int) bool {
			v := b.value(i, idx)
			return !v.Less(lo) && !hi.Less(v)
		}, nil
	case plan.Cmp:
		idx, err := b.ColIndex(t.Col)
		if err != nil {
			return nil, err
		}
		val := valOfLit(t.Val)
		switch t.Op {
		case "=":
			return func(i int) bool { return b.value(i, idx).Equal(val) }, nil
		case "<>", "!=":
			return func(i int) bool { return !b.value(i, idx).Equal(val) }, nil
		case "<":
			return func(i int) bool { return b.value(i, idx).Less(val) }, nil
		case "<=":
			return func(i int) bool { return !val.Less(b.value(i, idx)) }, nil
		case ">":
			return func(i int) bool { return val.Less(b.value(i, idx)) }, nil
		case ">=":
			return func(i int) bool { return !b.value(i, idx).Less(val) }, nil
		}
		return nil, fmt.Errorf("engine: unknown comparison %q", t.Op)
	case plan.ColPred:
		idx, err := b.ColIndex(t.Col)
		if err != nil {
			return nil, err
		}
		ffn, sfn := fns.colPredFns(t.Ref)
		switch t.Fn {
		case "float":
			if ffn == nil {
				return nil, fmt.Errorf("engine: dangling float predicate ref %d", t.Ref)
			}
			return func(i int) bool {
				v := b.value(i, idx)
				return v.IsNumeric() && ffn(v.AsFloat())
			}, nil
		case "string":
			if sfn == nil {
				return nil, fmt.Errorf("engine: dangling string predicate ref %d", t.Ref)
			}
			return func(i int) bool {
				v := b.value(i, idx)
				return v.Type() == TypeString && sfn(v.AsString())
			}, nil
		}
		return nil, fmt.Errorf("engine: unknown predicate domain %q", t.Fn)
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", e)
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
