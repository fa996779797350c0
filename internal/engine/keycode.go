package engine

// Binary key encoding for joins, grouping, and duplicate elimination.
//
// Value.Key renders a human-readable string key, allocating on every
// call (strconv formatting plus concatenation). The hot operator paths
// instead use AppendKey, which appends a compact self-delimiting binary
// encoding into a caller-supplied buffer: callers reuse one buffer
// across rows and pay an allocation only when a new distinct key is
// interned into a hash table (map lookups with string(buf) compile to
// allocation-free probes).
//
// The encoding preserves the engine's key-equality semantics exactly:
// two Values produce identical encodings iff their Key() strings are
// equal. In particular an int64 that is exactly representable as a
// float64 shares its encoding with the equal float (cross-type numeric
// joins keep working), an unrepresentable int64 gets a tagged encoding
// of its own, every NaN payload collapses to one canonical NaN key, and
// -0 keeps a key distinct from +0 (matching strconv's "-0" vs "0").
// Unlike the old Key()+separator scheme, concatenated AppendKey
// encodings are injective even when string values contain the separator
// byte: strings are length-prefixed, not delimited.

import (
	"encoding/binary"
	"math"
)

// Key encoding tags. Each tagged payload is self-delimiting: numeric
// tags are followed by exactly eight bytes, the bool tag by one, and
// the string tag by a uvarint length plus that many bytes.
const (
	keyTagNum  byte = 'n' // float64 bits (also covers representable ints)
	keyTagBig  byte = 'i' // int64 not exactly representable as float64
	keyTagStr  byte = 's'
	keyTagBool byte = 'b'
)

// canonicalNaNBits is the single bit pattern all NaNs encode to, so
// that every NaN payload lands in the same hash bucket — mirroring
// Value.Key, where strconv renders every NaN as "NaN".
const canonicalNaNBits = 0x7ff8000000000000

// numKeyBits returns the hash-key bit pattern of a float64: its IEEE
// bits with NaNs canonicalized. -0 and +0 keep distinct patterns,
// matching Value.Key.
func numKeyBits(f float64) uint64 {
	if math.IsNaN(f) {
		return canonicalNaNBits
	}
	return math.Float64bits(f)
}

// intKeyBits returns the hash-key bit pattern for an int64 together
// with the tag identifying its key space: representable ints live in
// the float64 ("n") space so they collide with their float twins,
// unrepresentable ints live in the tagged int ("i") space.
func intKeyBits(i int64) (bits uint64, tag byte) {
	if floatRepresentable(i) {
		return math.Float64bits(float64(i)), keyTagNum
	}
	return uint64(i), keyTagBig
}

func appendTagged64(dst []byte, tag byte, bits uint64) []byte {
	return append(dst, tag,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

func appendStringKey(dst []byte, s string) []byte {
	dst = append(dst, keyTagStr)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBoolKey(dst []byte, b bool) []byte {
	if b {
		return append(dst, keyTagBool, 1)
	}
	return append(dst, keyTagBool, 0)
}

// AppendKey appends the binary key encoding of v to dst and returns the
// extended buffer. Append-only: with sufficient capacity it does not
// allocate, so operators can reuse one buffer across an entire scan.
// Encoding equality coincides with Key() string equality.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.typ {
	case TypeInt:
		bits, tag := intKeyBits(v.i())
		return appendTagged64(dst, tag, bits)
	case TypeFloat:
		return appendTagged64(dst, keyTagNum, numKeyBits(v.f()))
	case TypeString:
		return appendStringKey(dst, v.s)
	case TypeBool:
		return appendBoolKey(dst, v.b())
	}
	return append(dst, '?')
}
