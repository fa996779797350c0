package engine

// Zone-map pruning. A ZoneMap summarizes one column of one on-disk
// segment (row count, min/max, NaN presence); ZoneMayMatch evaluates a
// plan.Expr against those summaries and answers "can any row in this
// segment satisfy the predicate?". The store skips decoding segments
// that cannot match. Correctness hinges on matching the compiled
// predicate semantics in expr.go exactly — in particular its
// Less-based forms, under which a NaN row *matches* `<=`, `>=`, `!=`,
// and BETWEEN (every Less involving NaN is false) while never matching
// `=`, `<`, `>`. The evaluator therefore runs a three-valued logic:
// "none" (no row can match — prunable), "all" (every row matches), and
// "some" (unknown), with And/Or/Not combining tri-states so negations
// stay sound: Not(some)=some, Not(none)=all, Not(all)=none.
//
// The evaluator lives in engine, not plan, because verdicts must use
// Value.Equal/Value.Less — the same exact int64/float comparison
// helpers the row predicates compile to. Re-deriving "is 2^53+1 equal
// to 9007199254740992.0" in a second place is how pruning bugs happen.

import (
	"math"
	"strings"

	"modeldata/internal/engine/plan"
)

// ZoneMap summarizes one column of a segment for pruning decisions.
// HasRange reports whether Min/Max are meaningful: a float column of
// only NaNs (or an empty segment) has no orderable values, so it
// carries HasNaN/Rows but no range.
type ZoneMap struct {
	Rows     int64
	HasRange bool
	Min, Max Value
	HasNaN   bool
}

// tri is the three-valued pruning verdict for one segment.
type tri uint8

const (
	triNone tri = iota // no row in the segment can match
	triSome            // unknown; must decode
	triAll             // every row in the segment matches
)

func (t tri) not() tri {
	switch t {
	case triNone:
		return triAll
	case triAll:
		return triNone
	}
	return triSome
}

func triAnd(a, b tri) tri {
	if a == triNone || b == triNone {
		return triNone
	}
	if a == triAll && b == triAll {
		return triAll
	}
	return triSome
}

func triOr(a, b tri) tri {
	if a == triAll || b == triAll {
		return triAll
	}
	if a == triNone && b == triNone {
		return triNone
	}
	return triSome
}

// ZoneMayMatch reports whether any row of a segment described by stats
// could satisfy pred. stats maps a column name to its zone map; a
// false second return (column absent, stats unavailable) degrades to
// "must decode". A nil pred never prunes. The verdict is conservative:
// false is only returned when no row can match, so pruning is
// correctness-neutral — filters are still re-applied to every decoded
// segment.
func ZoneMayMatch(pred plan.Expr, stats func(col string) (ZoneMap, bool)) bool {
	if pred == nil {
		return true
	}
	return zoneEval(pred, stats) != triNone
}

// zoneEval computes the tri-state verdict for e.
func zoneEval(e plan.Expr, stats func(col string) (ZoneMap, bool)) tri {
	switch t := e.(type) {
	case plan.And:
		return triAnd(zoneEval(t.L, stats), zoneEval(t.R, stats))
	case plan.Or:
		return triOr(zoneEval(t.L, stats), zoneEval(t.R, stats))
	case plan.Not:
		return zoneEval(t.E, stats).not()
	case plan.Cmp:
		zm, ok := stats(t.Col)
		if !ok {
			return triSome
		}
		return zoneCmp(t.Op, zm, valOfLit(t.Val))
	case plan.Between:
		zm, ok := stats(t.Col)
		if !ok {
			return triSome
		}
		return zoneBetween(zm, valOfLit(t.Lo), valOfLit(t.Hi))
	}
	return triSome
}

// litIsNaN reports whether v is a float NaN literal.
func litIsNaN(v Value) bool {
	return v.Type() == TypeFloat && math.IsNaN(v.AsFloat())
}

// zoneCmp evaluates one comparison against a column's zone map. The
// per-operator rules mirror the compiled row forms:
//
//	=  → v.Equal(row)            NaN row never matches; NaN literal never matches
//	<  → row.Less(v)             NaN row never matches
//	>  → v.Less(row)             NaN row never matches
//	<= → !v.Less(row)            NaN row ALWAYS matches
//	>= → !row.Less(v)            NaN row ALWAYS matches
//	!= → !v.Equal(row)           NaN row always matches
//
// so HasNaN forbids "none" verdicts for <=, >=, != but not for =, <, >,
// and forbids "all" verdicts for =, <, > but not for <=, >=, !=.
func zoneCmp(op string, zm ZoneMap, v Value) tri {
	if zm.Rows == 0 {
		return triNone
	}
	switch op {
	case "=":
		if litIsNaN(v) {
			return triNone // x = NaN is false for every x, NaN included
		}
		if !zm.HasRange {
			if zm.HasNaN {
				return triNone // all-NaN column: NaN = v is false
			}
			return triSome
		}
		if v.Less(zm.Min) || zm.Max.Less(v) {
			return triNone
		}
		if zm.Min.Equal(v) && zm.Max.Equal(v) && !zm.HasNaN {
			return triAll
		}
		return triSome
	case "!=", "<>":
		return zoneCmp("=", zm, v).not()
	case "<":
		// row.Less(v): NaN rows never match; NaN literal matches none.
		if !zm.HasRange {
			if zm.HasNaN {
				return triNone // only NaN rows: Less always false
			}
			return triSome
		}
		if !zm.Min.Less(v) {
			return triNone
		}
		if zm.Max.Less(v) && !zm.HasNaN {
			return triAll
		}
		return triSome
	case ">":
		if !zm.HasRange {
			if zm.HasNaN {
				return triNone
			}
			return triSome
		}
		if !v.Less(zm.Max) {
			return triNone
		}
		if v.Less(zm.Min) && !zm.HasNaN {
			return triAll
		}
		return triSome
	case "<=":
		// !v.Less(row): NaN rows always match; NaN literal matches all.
		if !zm.HasRange {
			if zm.HasNaN {
				return triAll
			}
			return triSome
		}
		if v.Less(zm.Min) && !zm.HasNaN {
			return triNone
		}
		if !v.Less(zm.Max) {
			return triAll
		}
		return triSome
	case ">=":
		if !zm.HasRange {
			if zm.HasNaN {
				return triAll
			}
			return triSome
		}
		if zm.Max.Less(v) && !zm.HasNaN {
			return triNone
		}
		if !zm.Min.Less(v) {
			return triAll
		}
		return triSome
	}
	return triSome
}

// zoneBetween evaluates BETWEEN lo AND hi, compiled as
// !row.Less(lo) && !hi.Less(row) — so NaN rows always match, and NaN
// bounds make the whole predicate true for every row.
func zoneBetween(zm ZoneMap, lo, hi Value) tri {
	if zm.Rows == 0 {
		return triNone
	}
	if !zm.HasRange {
		if zm.HasNaN {
			return triAll
		}
		return triSome
	}
	if !zm.HasNaN && (zm.Max.Less(lo) || hi.Less(zm.Min)) {
		return triNone
	}
	if !zm.Min.Less(lo) && !hi.Less(zm.Max) {
		return triAll
	}
	return triSome
}

// zoneStatsFunc adapts a case-insensitive name→ZoneMap table to the
// lookup shape ZoneMayMatch wants.
func zoneStatsFunc(m map[string]ZoneMap) func(string) (ZoneMap, bool) {
	return func(col string) (ZoneMap, bool) {
		zm, ok := m[strings.ToLower(col)]
		return zm, ok
	}
}
