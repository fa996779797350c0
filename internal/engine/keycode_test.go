package engine

import (
	"math"
	"testing"

	"modeldata/internal/rng"
)

// keyCorpus returns values spanning every type and the encoder's corner
// cases: cross-type numeric twins, unrepresentable int64s, NaN, signed
// zero, infinities, empty strings, and strings containing bytes that
// the old separator-based scheme could not distinguish.
func keyCorpus() []Value {
	return []Value{
		Int(0), Int(1), Int(-1), Int(42), Int(1 << 53), Int((1 << 53) + 1),
		Int(-(1 << 53)), Int(-(1 << 53) - 1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(42), Float(1.5),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(float64(1 << 53)),
		Str(""), Str("a"), Str("ab"), Str("a\x00"), Str("\x00a"), Str("0"), Str("NaN"),
		Bool(true), Bool(false),
	}
}

// TestAppendKeyMatchesKey verifies the load-bearing invariant of the
// binary encoding: two values produce identical AppendKey bytes iff
// their Key() strings are equal. Every operator hash table relies on
// this coincidence.
func TestAppendKeyMatchesKey(t *testing.T) {
	vals := keyCorpus()
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := string(a.AppendKey(nil)), string(b.AppendKey(nil))
			if (ka == kb) != (a.Key() == b.Key()) {
				t.Errorf("AppendKey equality diverges from Key: %v (key %q, enc %x) vs %v (key %q, enc %x)",
					a, a.Key(), ka, b, b.Key(), kb)
			}
		}
	}
}

// TestAppendKeyCompositeInjective verifies that concatenated encodings
// are injective across column boundaries — the old "\x00"-joined Key()
// scheme collided on strings containing the separator.
func TestAppendKeyCompositeInjective(t *testing.T) {
	rows := []Row{
		{Str("a"), Str("b")},
		{Str("a\x00"), Str("b")},
		{Str("a"), Str("\x00b")},
		{Str("ab"), Str("")},
		{Str(""), Str("ab")},
	}
	seen := map[string]int{}
	for i, r := range rows {
		k := string(appendRowKey(nil, r, []int{0, 1}))
		if prev, dup := seen[k]; dup {
			t.Fatalf("rows %d and %d collide on composite key %x", prev, i, k)
		}
		seen[k] = i
	}
}

// TestAppendKeyZeroAllocs pins the hot-path property the operators are
// built on: appending into a buffer with sufficient capacity performs
// no allocations.
func TestAppendKeyZeroAllocs(t *testing.T) {
	vals := keyCorpus()
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			buf = v.AppendKey(buf[:0])
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendKey allocated %.1f times per run, want 0", allocs)
	}
}

// TestAppendKeyRowKeyZeroAllocs pins the same property for composite
// row keys.
func TestAppendKeyRowKeyZeroAllocs(t *testing.T) {
	row := Row{Int(7), Float(2.5), Str("abc"), Bool(true)}
	idx := []int{0, 1, 2, 3}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendRowKey(buf[:0], row, idx)
	})
	if allocs != 0 {
		t.Fatalf("appendRowKey allocated %.1f times per run, want 0", allocs)
	}
}

// TestEquiJoinSmallBuildSide checks the shape the build-side choice is
// for: a large probe relation joined against a much smaller reference
// table.
func TestEquiJoinSmallBuildSide(t *testing.T) {
	r := rng.New(7)
	const nLeft, nRight = 5000, 8
	left := &Table{Name: "events", Schema: Schema{
		{Name: "region", Type: TypeInt},
		{Name: "val", Type: TypeFloat},
	}}
	for i := 0; i < nLeft; i++ {
		left.Rows = append(left.Rows, Row{Int(int64(r.Intn(nRight * 2))), Float(r.Float64())})
	}
	right := &Table{Name: "regions", Schema: Schema{
		{Name: "rid", Type: TypeInt},
		{Name: "name", Type: TypeString},
	}}
	for i := 0; i < nRight; i++ {
		right.Rows = append(right.Rows, Row{Int(int64(i)), Str(string(rune('a' + i)))})
	}

	want, err := From(left).Join(right, "region", "rid").Run()
	if err != nil {
		t.Fatal(err)
	}
	// Half the regions are missing from the reference table; the join
	// must both match and drop rows.
	if len(want.Rows) == 0 || len(want.Rows) == nLeft {
		t.Fatalf("degenerate join: %d of %d rows", len(want.Rows), nLeft)
	}
	// Probe order: output follows the big left table's row order.
	li, _ := left.ColIndex("region")
	pos := 0
	for _, lr := range left.Rows {
		if lr[li].AsInt() < nRight {
			if pos >= len(want.Rows) || !want.Rows[pos][0].Equal(lr[li]) {
				t.Fatalf("join output not in probe order at output row %d", pos)
			}
			pos++
		}
	}
	if pos != len(want.Rows) {
		t.Fatalf("join emitted %d rows, expected %d", len(want.Rows), pos)
	}
}

// appendRowKey appends the composite key of the row restricted to the
// given column indexes — how the golden reference interpreter keys
// group-by and distinct. Concatenation of self-delimiting encodings is
// injective, so composite keys collide iff every component key matches.
func appendRowKey(dst []byte, r Row, idx []int) []byte {
	for _, j := range idx {
		dst = r[j].AppendKey(dst)
	}
	return dst
}
