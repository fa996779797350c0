package engine

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// TestValueSize pins the Value layout: a type tag, one 64-bit payload
// word and a string header. A row of Values is what a realization
// allocates per cell, so a field added here is a decision about every
// table's footprint, not a detail.
func TestValueSize(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 32 {
		t.Fatalf("engine.Value is %d bytes, want 32", got)
	}
}

// wideValue is the 48-byte layout Value had before its int, float and
// bool payloads shared one word: a field per payload type, only the one
// the tag names ever set. Its methods are that layout's, verbatim, and
// FuzzValueMatchesWide holds the packed Value to them.
type wideValue struct {
	typ Type
	i   int64
	f   float64
	s   string
	b   bool
}

func (v wideValue) IsNumeric() bool { return v.typ == TypeInt || v.typ == TypeFloat }

func (v wideValue) AsInt() int64 {
	switch v.typ {
	case TypeInt:
		return v.i
	case TypeFloat:
		return int64(v.f)
	}
	panic(fmt.Sprintf("engine: AsInt on %s value", v.typ))
}

func (v wideValue) AsFloat() float64 {
	switch v.typ {
	case TypeInt:
		return float64(v.i)
	case TypeFloat:
		return v.f
	}
	panic(fmt.Sprintf("engine: AsFloat on %s value", v.typ))
}

func (v wideValue) AsString() string {
	if v.typ != TypeString {
		panic(fmt.Sprintf("engine: AsString on %s value", v.typ))
	}
	return v.s
}

func (v wideValue) AsBool() bool {
	if v.typ != TypeBool {
		panic(fmt.Sprintf("engine: AsBool on %s value", v.typ))
	}
	return v.b
}

func (v wideValue) Equal(o wideValue) bool {
	if v.typ == TypeInt && o.typ == TypeInt {
		return v.i == o.i
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.typ == TypeInt {
			return floatEqualsInt(o.f, v.i)
		}
		if o.typ == TypeInt {
			return floatEqualsInt(v.f, o.i)
		}
		return v.f == o.f
	}
	if v.typ != o.typ {
		return false
	}
	switch v.typ {
	case TypeString:
		return v.s == o.s
	case TypeBool:
		return v.b == o.b
	}
	return false
}

func (v wideValue) Less(o wideValue) bool {
	if v.typ == TypeInt && o.typ == TypeInt {
		return v.i < o.i
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.typ == TypeInt {
			return intLessFloat(v.i, o.f)
		}
		if o.typ == TypeInt {
			return floatLessInt(v.f, o.i)
		}
		return v.f < o.f
	}
	if v.typ != o.typ {
		return v.typ < o.typ
	}
	switch v.typ {
	case TypeString:
		return v.s < o.s
	case TypeBool:
		return !v.b && o.b
	}
	return false
}

func (v wideValue) Key() string {
	switch v.typ {
	case TypeInt:
		if floatRepresentable(v.i) {
			return "n" + strconv.FormatFloat(float64(v.i), 'g', -1, 64)
		}
		return "i" + strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return "n" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return "s" + v.s
	case TypeBool:
		if v.b {
			return "b1"
		}
		return "b0"
	}
	return "?"
}

func (v wideValue) String() string {
	switch v.typ {
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeBool:
		return strconv.FormatBool(v.b)
	}
	return "?"
}

func (v wideValue) AppendKey(dst []byte) []byte {
	switch v.typ {
	case TypeInt:
		bits, tag := intKeyBits(v.i)
		return appendTagged64(dst, tag, bits)
	case TypeFloat:
		return appendTagged64(dst, keyTagNum, numKeyBits(v.f))
	case TypeString:
		return appendStringKey(dst, v.s)
	case TypeBool:
		return appendBoolKey(dst, v.b)
	}
	return append(dst, '?')
}

// bothValues builds the same scalar in both layouts, through the
// constructors: t picks the type and the matching payload is used.
func bothValues(t uint8, i int64, fbits uint64, s string, b bool) (Value, wideValue) {
	switch typ := Type(t % 4); typ {
	case TypeInt:
		return Int(i), wideValue{typ: typ, i: i}
	case TypeFloat:
		f := math.Float64frombits(fbits)
		return Float(f), wideValue{typ: typ, f: f}
	case TypeString:
		return Str(s), wideValue{typ: typ, s: s}
	default:
		return Bool(b), wideValue{typ: typ, b: b}
	}
}

// sameBits is what == on two packed Values must compute: the same type
// and the same payload bits, so a NaN is itself and -0 is not +0.
func sameBits(a, b wideValue) bool {
	if a.typ != b.typ {
		return false
	}
	switch a.typ {
	case TypeInt:
		return a.i == b.i
	case TypeFloat:
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	case TypeString:
		return a.s == b.s
	}
	return a.b == b.b
}

// recovered runs f and reports its result, or that it panicked.
func recovered[T any](f func() T) (v T, panicked bool) {
	defer func() { panicked = recover() != nil }()
	return f(), false
}

// agree fails t unless got and want return the same, or both panic.
func agree[T comparable](t *testing.T, w wideValue, what string, got, want func() T) {
	t.Helper()
	g, gp := recovered(got)
	x, xp := recovered(want)
	if g != x || gp != xp {
		t.Fatalf("%s %v: %s = %v (panic %v), wide %v (panic %v)", w.typ, w, what, g, gp, x, xp)
	}
}

// checkUnary compares every one-value method of v against w's.
func checkUnary(t *testing.T, v Value, w wideValue) {
	t.Helper()
	agree(t, w, "Type", v.Type, func() Type { return w.typ })
	agree(t, w, "IsNumeric", v.IsNumeric, w.IsNumeric)
	agree(t, w, "AsInt", v.AsInt, w.AsInt)
	agree(t, w, "AsFloat bits",
		func() uint64 { return math.Float64bits(v.AsFloat()) },
		func() uint64 { return math.Float64bits(w.AsFloat()) })
	agree(t, w, "AsString", v.AsString, w.AsString)
	agree(t, w, "AsBool", v.AsBool, w.AsBool)
	agree(t, w, "Key", v.Key, w.Key)
	agree(t, w, "String", v.String, w.String)
	agree(t, w, "AppendKey",
		func() string { return string(v.AppendKey([]byte("p"))) },
		func() string { return string(w.AppendKey([]byte("p"))) })
}

// FuzzValueMatchesWide: for any two scalars, the packed Value answers
// every accessor, Equal, Less, Key, String and AppendKey exactly as the
// wide layout did, and == on two Values is bit identity.
func FuzzValueMatchesWide(f *testing.F) {
	type atom struct {
		t     uint8
		i     int64
		fbits uint64
		s     string
		b     bool
	}
	atoms := []atom{
		{t: uint8(TypeInt)},
		{t: uint8(TypeInt), i: math.MinInt64},
		{t: uint8(TypeInt), i: math.MaxInt64},
		{t: uint8(TypeInt), i: 1<<53 + 1},
		{t: uint8(TypeInt), i: 1<<53 - 1},
		{t: uint8(TypeInt), i: -(1<<53 + 1)},
		{t: uint8(TypeFloat)},
		{t: uint8(TypeFloat), fbits: math.Float64bits(math.Copysign(0, -1))},
		{t: uint8(TypeFloat), fbits: 0x7ff8000000000001},
		{t: uint8(TypeFloat), fbits: 0xfff0000000000abc},
		{t: uint8(TypeFloat), fbits: math.Float64bits(math.Inf(1))},
		{t: uint8(TypeFloat), fbits: math.Float64bits(math.Inf(-1))},
		{t: uint8(TypeFloat), fbits: math.Float64bits(1 << 53)},
		{t: uint8(TypeFloat), fbits: math.Float64bits(1<<53 + 2)},
		{t: uint8(TypeFloat), fbits: math.Float64bits(-1 << 63)},
		{t: uint8(TypeString)},
		{t: uint8(TypeString), s: "\xff\xfe\x00a"},
		{t: uint8(TypeString), s: "NaN"},
		{t: uint8(TypeBool)},
		{t: uint8(TypeBool), b: true},
	}
	for _, a := range atoms {
		for _, b := range atoms {
			f.Add(a.t, a.i, a.fbits, a.s, a.b, b.t, b.i, b.fbits, b.s, b.b)
		}
	}
	f.Fuzz(func(t *testing.T, ta uint8, ia int64, fa uint64, sa string, ba bool, tb uint8, ib int64, fb uint64, sb string, bb bool) {
		v, w := bothValues(ta, ia, fa, sa, ba)
		o, x := bothValues(tb, ib, fb, sb, bb)
		checkUnary(t, v, w)
		checkUnary(t, o, x)
		for _, c := range []struct {
			what      string
			got, want bool
		}{
			{"a.Equal(b)", v.Equal(o), w.Equal(x)},
			{"b.Equal(a)", o.Equal(v), x.Equal(w)},
			{"a.Less(b)", v.Less(o), w.Less(x)},
			{"b.Less(a)", o.Less(v), x.Less(w)},
			{"a == b", v == o, sameBits(w, x)},
		} {
			if c.got != c.want {
				t.Fatalf("a = %s %v, b = %s %v: %s = %v, want %v", w.typ, w, x.typ, x, c.what, c.got, c.want)
			}
		}
	})
}
