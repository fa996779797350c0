package engine

// Table-driven tests for zone-map predicate refutation, including the
// NaN asymmetries: under the engine's compiled comparison forms, NaN
// rows match <=, >=, != and BETWEEN but never =, < or >.

import (
	"math"
	"strings"
	"testing"

	"modeldata/internal/engine/plan"
)

// zoneStatsFunc adapts a case-insensitive name→ZoneMap table to the
// lookup shape ZoneMayMatch wants.
func zoneStatsFunc(m map[string]ZoneMap) func(string) (ZoneMap, bool) {
	return func(col string) (ZoneMap, bool) {
		zm, ok := m[strings.ToLower(col)]
		return zm, ok
	}
}

func intZone(lo, hi int64, rows int64) ZoneMap {
	return ZoneMap{Rows: rows, HasRange: true, Min: Int(lo), Max: Int(hi)}
}

func floatZone(lo, hi float64, rows int64, nan bool) ZoneMap {
	return ZoneMap{Rows: rows, HasRange: true, Min: Float(lo), Max: Float(hi), HasNaN: nan}
}

func TestZoneMayMatchCmp(t *testing.T) {
	cases := []struct {
		name string
		zm   ZoneMap
		op   string
		val  plan.Lit
		want bool
	}{
		// Int range [10, 20].
		{"eq-below", intZone(10, 20, 5), "=", plan.IntLit(5), false},
		{"eq-inside", intZone(10, 20, 5), "=", plan.IntLit(15), true},
		{"eq-above", intZone(10, 20, 5), "=", plan.IntLit(25), false},
		{"lt-at-min", intZone(10, 20, 5), "<", plan.IntLit(10), false},
		{"lt-above-min", intZone(10, 20, 5), "<", plan.IntLit(11), true},
		{"le-below-min", intZone(10, 20, 5), "<=", plan.IntLit(9), false},
		{"le-at-min", intZone(10, 20, 5), "<=", plan.IntLit(10), true},
		{"gt-at-max", intZone(10, 20, 5), ">", plan.IntLit(20), false},
		{"gt-below-max", intZone(10, 20, 5), ">", plan.IntLit(19), true},
		{"ge-above-max", intZone(10, 20, 5), ">=", plan.IntLit(21), false},
		// Constant block: every row is 7.
		{"ne-constant", intZone(7, 7, 5), "!=", plan.IntLit(7), false},
		{"ne-other", intZone(7, 7, 5), "!=", plan.IntLit(8), true},
		{"eq-constant", intZone(7, 7, 5), "=", plan.IntLit(7), true},
		// Int bounds past 2^53 must stay exact (no float collapse).
		{"big-int-exact", intZone(1<<53+1, 1<<53+1, 3), "=", plan.IntLit(1<<53 + 2), false},
		// Float range [1, 2] with NaN present: NaN rows match <= and !=,
		// so those cannot prune; < still can.
		{"nan-le", floatZone(1, 2, 5, true), "<=", plan.FloatLit(0), true},
		{"nan-lt", floatZone(1, 2, 5, true), "<", plan.FloatLit(0), false},
		{"nan-ge", floatZone(1, 2, 5, true), ">=", plan.FloatLit(5), true},
		{"nan-gt", floatZone(1, 2, 5, true), ">", plan.FloatLit(5), false},
		{"nan-ne-constant", floatZone(3, 3, 5, true), "!=", plan.FloatLit(3), true},
		{"nan-eq-below", floatZone(1, 2, 5, true), "=", plan.FloatLit(0), false},
		// NaN literal: = matches nothing; <= matches everything.
		{"lit-nan-eq", floatZone(1, 2, 5, false), "=", plan.FloatLit(math.NaN()), false},
		{"lit-nan-le", floatZone(1, 2, 5, false), "<=", plan.FloatLit(math.NaN()), true},
		// All-NaN column: no range, HasNaN set.
		{"allnan-eq", ZoneMap{Rows: 4, HasNaN: true}, "=", plan.FloatLit(0), false},
		{"allnan-lt", ZoneMap{Rows: 4, HasNaN: true}, "<", plan.FloatLit(0), false},
		{"allnan-le", ZoneMap{Rows: 4, HasNaN: true}, "<=", plan.FloatLit(0), true},
		// Empty block prunes everything.
		{"empty-le", ZoneMap{Rows: 0}, "<=", plan.FloatLit(0), false},
		// No stats at all: conservative "may match".
		{"no-stats", ZoneMap{Rows: 4}, "=", plan.IntLit(1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pred := plan.Cmp{Op: tc.op, Col: "c", Val: tc.val}
			stats := zoneStatsFunc(map[string]ZoneMap{"c": tc.zm})
			if got := ZoneMayMatch(pred, stats); got != tc.want {
				t.Fatalf("ZoneMayMatch(%s %s %v) = %v, want %v", tc.name, tc.op, tc.val, got, tc.want)
			}
		})
	}
}

func TestZoneMayMatchBetween(t *testing.T) {
	cases := []struct {
		name   string
		zm     ZoneMap
		lo, hi plan.Lit
		want   bool
	}{
		{"disjoint-below", intZone(10, 20, 5), plan.IntLit(1), plan.IntLit(5), false},
		{"disjoint-above", intZone(10, 20, 5), plan.IntLit(25), plan.IntLit(30), false},
		{"overlap", intZone(10, 20, 5), plan.IntLit(15), plan.IntLit(25), true},
		{"containing", intZone(10, 20, 5), plan.IntLit(0), plan.IntLit(100), true},
		{"nan-disjoint", floatZone(10, 20, 5, true), plan.FloatLit(1), plan.FloatLit(5), true},
		{"allnan", ZoneMap{Rows: 4, HasNaN: true}, plan.FloatLit(1), plan.FloatLit(5), true},
		{"empty", ZoneMap{Rows: 0}, plan.IntLit(0), plan.IntLit(100), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pred := plan.Between{Col: "c", Lo: tc.lo, Hi: tc.hi}
			stats := zoneStatsFunc(map[string]ZoneMap{"c": tc.zm})
			if got := ZoneMayMatch(pred, stats); got != tc.want {
				t.Fatalf("ZoneMayMatch = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestZoneMayMatchBoolean(t *testing.T) {
	stats := zoneStatsFunc(map[string]ZoneMap{
		"a": intZone(10, 20, 5),
		"b": intZone(7, 7, 5), // constant 7
	})
	aOut := plan.Cmp{Op: "=", Col: "a", Val: plan.IntLit(99)}   // none
	aIn := plan.Cmp{Op: "=", Col: "a", Val: plan.IntLit(15)}    // some
	bAll := plan.Cmp{Op: "=", Col: "b", Val: plan.IntLit(7)}    // all
	unknown := plan.Cmp{Op: "=", Col: "z", Val: plan.IntLit(1)} // no stats

	cases := []struct {
		name string
		e    plan.Expr
		want bool
	}{
		{"nil", nil, true},
		{"and-none-some", plan.And{L: aOut, R: aIn}, false},
		{"and-some-some", plan.And{L: aIn, R: aIn}, true},
		{"or-none-some", plan.Or{L: aOut, R: aIn}, true},
		{"or-none-none", plan.Or{L: aOut, R: aOut}, false},
		{"not-all", plan.Not{E: bAll}, false},
		{"not-none", plan.Not{E: aOut}, true},
		{"unknown-col", unknown, true},
		{"and-none-unknown", plan.And{L: aOut, R: unknown}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ZoneMayMatch(tc.e, stats); got != tc.want {
				t.Fatalf("ZoneMayMatch = %v, want %v", got, tc.want)
			}
		})
	}
}
