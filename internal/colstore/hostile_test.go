package colstore

// Segments as hostile input. A footer is trusted only as far as its
// checksum, and a checksum says the bytes are the ones written, not
// that a well-meaning writer wrote them: every length a segment
// declares has to be bounded by the bytes present before it sizes an
// allocation or a slice. The crafted cases re-checksum what they forge,
// so only the bounds checks stand between them and a panic; the fuzz
// targets assert the same for arbitrary bytes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"modeldata/internal/engine"
)

// forgedCol is one footer entry of a crafted segment: whatever offset,
// length and checksum the case wants to declare.
type forgedCol struct {
	name      string
	typ       engine.Type
	off, size uint64
	sum       uint32
}

// forgeSegment assembles header, data, and a footer declaring rows and
// cols, with the footer checksum and trailer computed honestly.
func forgeSegment(data []byte, rows uint64, cols []forgedCol) []byte {
	seg := append([]byte(segMagic), segVersion)
	seg = append(seg, data...)
	start := len(seg)
	seg = binary.AppendUvarint(seg, rows)
	seg = binary.AppendUvarint(seg, 1)
	seg = append(seg, 'f')
	seg = binary.AppendUvarint(seg, uint64(len(cols)))
	for _, c := range cols {
		seg = binary.AppendUvarint(seg, uint64(len(c.name)))
		seg = append(seg, c.name...)
		seg = append(seg, byte(c.typ))
		seg = binary.AppendUvarint(seg, c.off)
		seg = binary.AppendUvarint(seg, c.size)
		seg = binary.BigEndian.AppendUint32(seg, c.sum)
		seg = append(seg, 0) // zone flags: no range
		seg = binary.AppendUvarint(seg, 0)
	}
	n := len(seg) - start
	seg = binary.BigEndian.AppendUint32(seg, checksum(seg[start:]))
	seg = append(seg, segTrailer...)
	return binary.BigEndian.AppendUint64(seg, uint64(n))
}

// openAndScan writes seg as a one-segment store, opens it and decodes
// every column.
func openAndScan(t *testing.T, seg []byte) error {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000000.mdcs"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		return err
	}
	_, err = engine.FromStorage(st).Run()
	return err
}

func TestForgedLengthsAreErrorsNotPanics(t *testing.T) {
	const hdr = uint64(headerBytes)
	intData := make([]byte, 16) // two int64 values
	hugeLen := binary.AppendUvarint(nil, 1<<63)
	cases := []struct {
		name string
		data []byte
		rows uint64
		col  forgedCol
	}{
		{"string length 2^63 inside a well-checksummed block", hugeLen, 1,
			forgedCol{"s", engine.TypeString, hdr, uint64(len(hugeLen)), checksum(hugeLen)}},
		{"string length just past the block", []byte{5, 'a', 'b'}, 1,
			forgedCol{"s", engine.TypeString, hdr, 3, checksum([]byte{5, 'a', 'b'})}},
		{"block size 2^63 (negative as int64)", intData, 2,
			forgedCol{"i", engine.TypeInt, hdr, 1 << 63, 0}},
		{"block size past the footer", intData, 2,
			forgedCol{"i", engine.TypeInt, hdr, 1 << 20, 0}},
		{"block offset past the file", intData, 2,
			forgedCol{"i", engine.TypeInt, 1 << 40, 16, 0}},
		{"block offset 2^63", intData, 2,
			forgedCol{"i", engine.TypeInt, 1 << 63, 16, 0}},
		{"block inside the header", intData, 2,
			forgedCol{"i", engine.TypeInt, 0, 16, 0}},
		{"block leaving data bytes to no column", intData, 1,
			forgedCol{"i", engine.TypeInt, hdr, 8, checksum(intData[:8])}},
		{"rows the int block cannot hold", intData, 3,
			forgedCol{"i", engine.TypeInt, hdr, 16, checksum(intData)}},
		{"2^40 rows over a 16-byte string block", intData, 1 << 40,
			forgedCol{"s", engine.TypeString, hdr, 16, checksum(intData)}},
		{"2^62 rows of bool", intData, 1 << 62,
			forgedCol{"b", engine.TypeBool, hdr, 16, checksum(intData)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := openAndScan(t, forgeSegment(tc.data, tc.rows, []forgedCol{tc.col}))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error = %v, want ErrCorrupt", err)
			}
		})
	}
	// The forger itself is sound: the honest version of the int case reads.
	ok := forgeSegment(intData, 2, []forgedCol{{"i", engine.TypeInt, hdr, 16, checksum(intData)}})
	if err := openAndScan(t, ok); err != nil {
		t.Fatalf("honest forged segment: %v", err)
	}
	// Two columns over one block would let a small file decode without
	// bound; blocks tile the data range, so the second is refused.
	sum := checksum(intData)
	twice := []forgedCol{{"a", engine.TypeInt, hdr, 16, sum}, {"b", engine.TypeInt, hdr, 16, sum}}
	if err := openAndScan(t, forgeSegment(intData, 2, twice)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlapping blocks: error = %v, want ErrCorrupt", err)
	}
	if err := openAndScan(t, forgeSegment(nil, 0, nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment of zero columns: error = %v, want ErrCorrupt", err)
	}
}

func TestVersion1HeaderIsRefusedByName(t *testing.T) {
	seg := forgeSegment(make([]byte, 8), 1, []forgedCol{{"i", engine.TypeInt, uint64(headerBytes), 8, 0}})
	seg[len(segMagic)] = 1
	err := openAndScan(t, seg)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "only version 2") {
		t.Fatalf("error %q does not name both versions", msg)
	}
}

// realSegment is the bytes of a three-row segment of all four types, as
// the Writer produces them: the fuzz seeds.
func realSegment(tb testing.TB) ([]byte, *segMeta) {
	tb.Helper()
	seg := encodeSegment(nil, "seed", engine.Schema{
		{Name: "i", Type: engine.TypeInt}, {Name: "f", Type: engine.TypeFloat},
		{Name: "s", Type: engine.TypeString}, {Name: "b", Type: engine.TypeBool},
	}, []segCol{
		{ints: []int64{1, -2, 1 << 60}}, {floats: []float64{0.5, 0, 3}},
		{strs: []string{"", "a", "longer"}}, {bools: []bool{true, false, true}},
	})
	sm, err := readFooterAt("seed", bytes.NewReader(seg), int64(len(seg)))
	if err != nil {
		tb.Fatalf("the seed segment does not read: %v", err)
	}
	return seg, sm
}

// allocBound is the most a decode may allocate for n input bytes: a
// string vector is a 16-byte header per row and a row is at least one
// byte, so 16×, plus the copy of the slab and fixed overhead.
func allocBound(n int) uint64 { return 32*uint64(n) + 64<<10 }

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

func FuzzDecodeBlock(f *testing.F) {
	seg, sm := realSegment(f)
	for _, cm := range sm.cols {
		f.Add(seg[cm.off:cm.off+cm.size], uint8(cm.typ), int(sm.rows))
	}
	f.Add(binary.AppendUvarint(nil, 1<<63), uint8(engine.TypeString), 1)
	f.Add([]byte{}, uint8(engine.TypeInt), -1)
	f.Fuzz(func(t *testing.T, raw []byte, typ uint8, rows int) {
		var vec any
		var err error
		got := allocated(func() { vec, err = decodeBlock(raw, engine.Type(typ), rows, nil) })
		if got > allocBound(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), got)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v is not ErrCorrupt", err)
		}
		if err == nil {
			if _, err := engine.BlockOf("b", engine.Schema{{Name: "c", Type: engine.Type(typ)}}, []any{vec}); err != nil {
				t.Fatalf("decoded vector is not a column of its type: %v", err)
			}
		}
		if rows < 0 || rows > len(raw) {
			return // every value takes a byte at least: refused before into is touched
		}
		// Into a used vector with room, and into one without, the decode
		// is the fresh one, or the same error.
		for _, n := range []int{rows + 3, max(rows-1, 0)} {
			into := junkVector(engine.Type(typ), n)
			again, err2 := decodeBlock(raw, engine.Type(typ), rows, into)
			if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
				t.Fatalf("into a %d-cap vector: error %v, fresh decode %v", n, err2, err)
			}
			if err == nil && !sameVector(vec, again) {
				t.Fatalf("into a %d-cap vector: %v, fresh decode %v", n, again, vec)
			}
		}
	})
}

// junkVector is a used vector of typ with capacity n: every slot holds
// a value no block decodes to by chance.
func junkVector(typ engine.Type, n int) any {
	switch typ {
	case engine.TypeInt:
		v := make([]int64, n)
		for i := range v {
			v[i] = -0x5a5a5a5a5a5a5a5a
		}
		return v
	case engine.TypeFloat:
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(0x7ff8_dead_beef_0001)
		}
		return v
	case engine.TypeString:
		v := make([]string, n)
		for i := range v {
			v[i] = "junk"
		}
		return v
	case engine.TypeBool:
		v := make([]bool, n)
		for i := range v {
			v[i] = true
		}
		return v
	}
	return nil
}

// sameVector reports whether two decoded vectors are one type and hold
// the same values bit for bit.
func sameVector(a, b any) bool {
	switch x := a.(type) {
	case []int64:
		y, ok := b.([]int64)
		return ok && slices.Equal(x, y)
	case []float64:
		y, ok := b.([]float64)
		return ok && slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	case []string:
		y, ok := b.([]string)
		return ok && slices.Equal(x, y)
	case []bool:
		y, ok := b.([]bool)
		return ok && slices.Equal(x, y)
	}
	return false
}

func FuzzOpenSegment(f *testing.F) {
	seg, _ := realSegment(f)
	f.Add(seg)
	f.Add(forgeSegment(binary.AppendUvarint(nil, 1<<63), 1,
		[]forgedCol{{"s", engine.TypeString, uint64(headerBytes), 10, 0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got := allocated(func() {
			r := bytes.NewReader(data)
			sm, err := readFooterAt("fuzz", r, int64(len(data)))
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("open error %v is not ErrCorrupt", err)
				}
				return
			}
			var buf []byte
			for j := range sm.cols {
				if _, buf, err = readBlock(r, &sm.cols[j], int(sm.rows), buf, nil); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("column %d: error %v is not ErrCorrupt", j, err)
				}
			}
		})
		if got > allocBound(len(data)) {
			t.Fatalf("opening %d bytes allocated %d", len(data), got)
		}
	})
}

// The allocation ceilings: a block is one slab, so what a decode or a
// segment write allocates does not grow with its rows.

func TestStringBlockDecodeAllocatesTwice(t *testing.T) {
	var raw []byte
	const rows = 4096
	for i := 0; i < rows; i++ {
		raw = append(raw, 3, 't', byte('0'+i%10), byte('0'+i/10%10))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeBlock(raw, engine.TypeString, rows, nil); err != nil {
			t.Fatal(err)
		}
	})
	// The string vector and the one conversion of the slab (plus the
	// boxing of the returned slice header).
	if allocs > 3 {
		t.Fatalf("decoding a %d-row string block allocated %.0f times", rows, allocs)
	}
}

func TestSegmentWriteAllocatesPerColumnNotPerRow(t *testing.T) {
	schema := engine.Schema{
		{Name: "i", Type: engine.TypeInt}, {Name: "f", Type: engine.TypeFloat},
		{Name: "s", Type: engine.TypeString}, {Name: "b", Type: engine.TypeBool},
	}
	const rows = 4096
	ints, floats, strs, bools := make([]int64, rows), make([]float64, rows), make([]string, rows), make([]bool, rows)
	for i := range strs {
		strs[i] = "tag"
	}
	blk, err := engine.BlockOf("w", schema, []any{ints, floats, strs, bools})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(t.TempDir(), "w", schema, Options{SegmentRows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock(blk); err != nil { // sizes the encode buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		w.nextSeg = 1 // overwrite one file
		if err := w.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
	})
	// File name and open, the footer entries, Vec's four boxed slice
	// headers: a handful per column, none per row.
	if limit := float64(8 * len(schema)); allocs > limit {
		t.Fatalf("writing a %d-row segment allocated %.0f times, want ≤ %.0f", rows, allocs, limit)
	}
}
