// Package engine is an in-memory relational engine: typed columns,
// tables, and a relational-algebra / SQL-ish query API. It is the
// database substrate on which the Monte Carlo Database (internal/mcdb),
// SimSQL (internal/simsql), and Indemics (internal/indemics) layers are
// built, standing in for the parallel RDBMS and Hadoop back ends used by
// the systems surveyed in the paper.
//
// Values are a tagged union rather than interface{} so that hot query
// loops avoid boxing and type switches stay local to this file.
package engine

import (
	"fmt"
	"math"
	"strconv"
)

// Type enumerates the column types supported by the engine.
type Type uint8

// Column types.
const (
	TypeInt Type = iota
	TypeFloat
	TypeString
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Value is a tagged-union scalar. The zero Value is the integer 0.
//
// An int, float or bool lives in the one payload word n — an int as its
// two's-complement bits, a float as math.Float64bits, a bool as 0 or 1 —
// and a string in s, so a Value is 32 bytes and a row of them is what a
// realization allocates per cell. Every constructor leaves the fields it
// does not use zero, which makes == bit identity: same type, same bits
// (a NaN equals a NaN with its payload, and -0 differs from +0). Equal
// is SQL equality.
type Value struct {
	typ Type
	n   uint64
	s   string
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{typ: TypeInt, n: uint64(v)} }

// Float returns a float Value.
func Float(v float64) Value { return Value{typ: TypeFloat, n: math.Float64bits(v)} }

// String returns a string Value.
func Str(v string) Value { return Value{typ: TypeString, s: v} }

// Bool returns a boolean Value.
func Bool(v bool) Value {
	if v {
		return Value{typ: TypeBool, n: 1}
	}
	return Value{typ: TypeBool}
}

// i, f and b read the payload word as the type the tag names; the
// caller has checked the tag.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) b() bool    { return v.n != 0 }

// Type returns the value's type tag.
func (v Value) Type() Type { return v.typ }

// AsInt returns the integer payload; float values are truncated. It
// panics for string and bool values (programmer error — schemas are
// checked on insert).
func (v Value) AsInt() int64 {
	switch v.typ {
	case TypeInt:
		return v.i()
	case TypeFloat:
		return int64(v.f())
	}
	panic(fmt.Sprintf("engine: AsInt on %s value", v.typ))
}

// AsFloat returns the numeric payload widened to float64. It panics for
// string and bool values.
func (v Value) AsFloat() float64 {
	switch v.typ {
	case TypeInt:
		return float64(v.i())
	case TypeFloat:
		return v.f()
	}
	panic(fmt.Sprintf("engine: AsFloat on %s value", v.typ))
}

// AsString returns the string payload. It panics for other types.
func (v Value) AsString() string {
	if v.typ != TypeString {
		panic(fmt.Sprintf("engine: AsString on %s value", v.typ))
	}
	return v.s
}

// AsBool returns the boolean payload. It panics for other types.
func (v Value) AsBool() bool {
	if v.typ != TypeBool {
		panic(fmt.Sprintf("engine: AsBool on %s value", v.typ))
	}
	return v.b()
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.typ == TypeInt || v.typ == TypeFloat }

// exactInt64 bounds for float64 range checks: 2^63 is exactly
// representable as a float64, so f < maxInt64AsFloat excludes every
// float at or above 2^63 and f >= minInt64AsFloat admits exactly
// math.MinInt64 (which is a power of two and thus exact).
const (
	maxInt64AsFloat = 9223372036854775808.0  // 2^63
	minInt64AsFloat = -9223372036854775808.0 // -2^63
)

// floatRepresentable reports whether the int64 round-trips exactly
// through float64 — true for all |i| ≤ 2^53 and for larger ints whose
// low bits happen to vanish.
func floatRepresentable(i int64) bool {
	f := float64(i)
	return f >= minInt64AsFloat && f < maxInt64AsFloat && int64(f) == i
}

// floatEqualsInt reports f == i exactly, without rounding i through
// float64 (float64(i) == f would wrongly equate 2^53+1 with 2^53.0).
func floatEqualsInt(f float64, i int64) bool {
	return f == math.Trunc(f) && f >= minInt64AsFloat && f < maxInt64AsFloat && int64(f) == i
}

// intLessFloat reports i < f exactly. NaN compares as neither less nor
// greater, matching float64 semantics.
func intLessFloat(i int64, f float64) bool {
	if math.IsNaN(f) {
		return false
	}
	if f >= maxInt64AsFloat {
		return true
	}
	if f < minInt64AsFloat {
		return false
	}
	g := math.Floor(f) // in [-2^63, 2^63), safe to convert
	gi := int64(g)
	if i != gi {
		return i < gi
	}
	return f != g // equal integer parts: i < f iff f has a fraction
}

// floatLessInt reports f < i exactly: true iff floor(f) < i.
func floatLessInt(f float64, i int64) bool {
	if math.IsNaN(f) {
		return false
	}
	if f >= maxInt64AsFloat {
		return false
	}
	if f < minInt64AsFloat {
		return true
	}
	return int64(math.Floor(f)) < i
}

// Equal reports value equality. Ints and floats compare numerically
// across the two numeric types, exactly: an int/int pair compares as
// int64 (no precision loss above 2^53), and a mixed int/float pair is
// equal only when the float is the exact integer — Int(2^53+1) is not
// equal to Float(2^53) even though both round to the same float64.
func (v Value) Equal(o Value) bool {
	if v.typ == TypeInt && o.typ == TypeInt {
		return v.i() == o.i()
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.typ == TypeInt {
			return floatEqualsInt(o.f(), v.i())
		}
		if o.typ == TypeInt {
			return floatEqualsInt(v.f(), o.i())
		}
		return v.f() == o.f()
	}
	if v.typ != o.typ {
		return false
	}
	switch v.typ {
	case TypeString:
		return v.s == o.s
	case TypeBool:
		return v.b() == o.b()
	}
	return false
}

// Less defines a total order within comparable types: numerics compare
// numerically and exactly (int/int as int64, mixed int/float without
// rounding the int through float64), strings lexically, bools
// false < true. Cross-type comparisons between non-numeric types order
// by type tag.
func (v Value) Less(o Value) bool {
	if v.typ == TypeInt && o.typ == TypeInt {
		return v.i() < o.i()
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.typ == TypeInt {
			return intLessFloat(v.i(), o.f())
		}
		if o.typ == TypeInt {
			return floatLessInt(v.f(), o.i())
		}
		return v.f() < o.f()
	}
	if v.typ != o.typ {
		return v.typ < o.typ
	}
	switch v.typ {
	case TypeString:
		return v.s < o.s
	case TypeBool:
		return !v.b() && o.b()
	}
	return false
}

// Key returns a string usable as a hash key for joins and grouping:
// Key equality coincides with Equal. An int that is exactly
// representable as a float64 shares its key with the equal float
// (cross-type numeric joins work for all |i| ≤ 2^53 and exact larger
// ints); an unrepresentable int gets a FormatInt key of its own, so
// distinct int64 keys above 2^53 no longer collide.
func (v Value) Key() string {
	switch v.typ {
	case TypeInt:
		if floatRepresentable(v.i()) {
			return "n" + strconv.FormatFloat(float64(v.i()), 'g', -1, 64)
		}
		return "i" + strconv.FormatInt(v.i(), 10)
	case TypeFloat:
		return "n" + strconv.FormatFloat(v.f(), 'g', -1, 64)
	case TypeString:
		return "s" + v.s
	case TypeBool:
		if v.b() {
			return "b1"
		}
		return "b0"
	}
	return "?"
}

// String renders the value for display.
func (v Value) String() string {
	switch v.typ {
	case TypeInt:
		return strconv.FormatInt(v.i(), 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeBool:
		return strconv.FormatBool(v.b())
	}
	return "?"
}
