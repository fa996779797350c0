// Package plan defines the engine's logical query plans: inspectable
// expression values, plan nodes, table statistics, a cost model, and
// the rule+cost optimizer that orders joins and pushes filters. The
// package deliberately has no dependency on the engine's physical
// layer (tables, blocks, operators) — plans are pure serializable
// values, so the planner and the operator suite can evolve
// independently (the GenDB argument) and a plan can be rendered,
// compared, cached, or shipped without touching data.
//
// Determinism: every choice in this package is a pure function of its
// inputs. Statistics come from the caller's Catalog, ties break toward
// the lower written scan index, and all renderings (text and JSON) are
// byte-stable for a given plan.
package plan

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is an inspectable boolean expression over the columns of one
// relation. It is the engine's one filter form: the optimizer examines
// it (for pushdown and selectivity estimation), zone maps judge it, and
// EXPLAIN renders and serializes it.
type Expr interface {
	isExpr()
	// String renders the expression deterministically for EXPLAIN.
	String() string
}

// LitKind tags a literal's type.
type LitKind uint8

// Literal kinds.
const (
	LitInt LitKind = iota
	LitFloat
	LitString
	LitBool
)

func (k LitKind) String() string {
	switch k {
	case LitInt:
		return "int"
	case LitFloat:
		return "float"
	case LitString:
		return "string"
	case LitBool:
		return "bool"
	}
	return fmt.Sprintf("LitKind(%d)", uint8(k))
}

// Lit is a typed literal. Exactly one payload field is meaningful,
// selected by Kind.
type Lit struct {
	Kind LitKind
	I    int64
	F    float64
	S    string
	B    bool
}

// IntLit, FloatLit, StringLit, BoolLit build literals.
func IntLit(v int64) Lit     { return Lit{Kind: LitInt, I: v} }
func FloatLit(v float64) Lit { return Lit{Kind: LitFloat, F: v} }
func StringLit(v string) Lit { return Lit{Kind: LitString, S: v} }
func BoolLit(v bool) Lit     { return Lit{Kind: LitBool, B: v} }

// String renders the literal.
func (l Lit) String() string {
	switch l.Kind {
	case LitInt:
		return strconv.FormatInt(l.I, 10)
	case LitFloat:
		return strconv.FormatFloat(l.F, 'g', -1, 64)
	case LitString:
		return "'" + strings.ReplaceAll(l.S, "'", "''") + "'"
	case LitBool:
		return strconv.FormatBool(l.B)
	}
	return "?"
}

// Float returns the literal's numeric value and whether it has one.
func (l Lit) Float() (float64, bool) {
	switch l.Kind {
	case LitInt:
		return float64(l.I), true
	case LitFloat:
		return l.F, true
	}
	return 0, false
}

// Cmp compares a column against a literal. Op is one of
// "=", "<>", "!=", "<", "<=", ">", ">=".
type Cmp struct {
	Op  string
	Col string
	Val Lit
}

// Between keeps rows with Lo <= col <= Hi.
type Between struct {
	Col    string
	Lo, Hi Lit
}

// And is conjunction.
type And struct{ L, R Expr }

// Or is disjunction.
type Or struct{ L, R Expr }

// Not is negation.
type Not struct{ E Expr }

func (Cmp) isExpr()     {}
func (Between) isExpr() {}
func (And) isExpr()     {}
func (Or) isExpr()      {}
func (Not) isExpr()     {}

func (e Cmp) String() string { return e.Col + " " + e.Op + " " + e.Val.String() }
func (e Between) String() string {
	return e.Col + " between " + e.Lo.String() + " and " + e.Hi.String()
}
func (e And) String() string { return "(" + e.L.String() + " and " + e.R.String() + ")" }
func (e Or) String() string  { return "(" + e.L.String() + " or " + e.R.String() + ")" }
func (e Not) String() string { return "not " + e.E.String() }

// Columns returns the column names referenced by e, in first-appearance
// order without duplicates.
func Columns(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(c string) {
		k := strings.ToLower(c)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch t := e.(type) {
		case Cmp:
			add(t.Col)
		case Between:
			add(t.Col)
		case And:
			walk(t.L)
			walk(t.R)
		case Or:
			walk(t.L)
			walk(t.R)
		case Not:
			walk(t.E)
		}
	}
	walk(e)
	return out
}

// Conjuncts splits top-level AND chains into their conjuncts, in
// left-to-right written order. Pushdown operates per conjunct.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Expr{e}
}

// RenameCols returns e with every column name mapped through f.
func RenameCols(e Expr, f func(string) string) Expr {
	switch t := e.(type) {
	case Cmp:
		t.Col = f(t.Col)
		return t
	case Between:
		t.Col = f(t.Col)
		return t
	case And:
		return And{L: RenameCols(t.L, f), R: RenameCols(t.R, f)}
	case Or:
		return Or{L: RenameCols(t.L, f), R: RenameCols(t.R, f)}
	case Not:
		return Not{E: RenameCols(t.E, f)}
	}
	return e
}
