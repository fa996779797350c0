package engine

// Grace-style spill-to-disk for hash join and group-by. When a memory
// budget is set and the estimated hash-table footprint of an operator
// exceeds it, the operator partitions its input rows by a hash of the
// key into P partitions of one spill file (spillRuns), then processes
// the partitions one at a time — so peak hash state is roughly 1/P of
// the unbounded build. Output is byte-identical to the in-memory path:
//
//   - Join: every join emits the left rows in logical order, each
//     followed by its right matches in right order. Each key hashes to
//     exactly one partition, so a left row's matches all surface in
//     that partition, and in right order whichever input the partition
//     hashes: in file order = scan order when the right is hashed, in
//     probe order when the left is. The counting placement by left row
//     that the in-memory join uses when it hashes the left (leftMajor)
//     then restores left order exactly.
//   - Group-by: a record carries what the grouping reads — the key
//     values, every aggregate input, and the row's logical index — so a
//     partition reads back as a dense block of its own rows and is
//     grouped by the in-memory operators. A group's rows land wholly in
//     one partition, in scan order, so per-group float accumulation is
//     bit-identical; groups are globally ordered by the logical index of
//     their first appearance, reproducing first-appearance order.
//
// Spill I/O failures are not fatal: the operator falls back to the
// in-memory path (counted by colstore.spill_fallbacks), trading the
// budget for completion.

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"sort"
)

// hashEntryBytes is the modeled per-entry overhead of a Go map bucket
// plus the []int32 match list header — deliberately round; the budget
// is a planning estimate, not an accounting guarantee.
const hashEntryBytes = 48

// estHashBytes estimates the hash-table footprint of building on b's
// key columns: per-row bucket overhead, eight bytes per fixed-width
// key, and the summed byte length of string keys. It is additive over
// row-disjoint blocks, so a stream can keep a running total.
func estHashBytes(b *ColumnBlock, keyIdx []int) int64 {
	n := int64(b.Len())
	est := n * hashEntryBytes
	for _, j := range keyIdx {
		if b.Schema[j].Type == TypeString {
			strs := b.cols[j].strs
			for i, ln := 0, b.Len(); i < ln; i++ {
				est += int64(len(strs[b.phys(i)]))
			}
			continue
		}
		est += n * 8
	}
	return est
}

// spillPartitionCount picks a power-of-two partition count so each
// partition's estimated build fits the budget, clamped to [2, 128]
// (beyond 128 the per-partition overhead dominates any win).
func spillPartitionCount(est, budget int64) int {
	p := 2
	for int64(p) < 128 && est/int64(p) > budget {
		p <<= 1
	}
	return p
}

// codePartition maps a uint64 key code to one of p partitions, p a
// power of two. Codes are float bit patterns, whose low bits are mostly
// zero and whose high bits are an exponent: multiply to mix, then take
// the top bits.
func codePartition(c uint64, p int) uint64 {
	return (c * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(p)))
}

// fnv64aBytes is the FNV-1a hash of b. Inlined (vs hash/fnv) to avoid
// a per-row allocation in the partitioning loops.
func fnv64aBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// --- the spill file ---

// spillFile is where one spilling operator's partitions go: written as
// runs at offsets spillRuns chooses and read back by offset. An
// *os.File is one; tests hand in one that fails.
type spillFile interface {
	io.WriterAt
	io.ReaderAt
	io.Closer
}

// tempSpill is a scratch file that removes itself when closed.
type tempSpill struct{ *os.File }

func (t tempSpill) Close() error {
	err := t.File.Close()
	if rerr := os.Remove(t.Name()); err == nil {
		err = rerr
	}
	return err
}

// openSpillFile creates a scratch spill file under dir ("" = the OS
// temp dir), creating dir first: a spill dir named before any spill
// happens need not exist yet.
func openSpillFile(dir string) (spillFile, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.CreateTemp(dir, "mdspill-*")
	if err != nil {
		return nil, err
	}
	return tempSpill{f}, nil
}

// spillRunBytes is the size of one partition's window of the slab, and
// so of the runs it is written out as; spillRecordRoom is the room a
// window keeps for the record being appended to it. A longer record
// grows its window off the slab, which costs one copy.
const (
	spillRunBytes   = 32 << 10
	spillRecordRoom = 256
)

// spillRuns keeps P partitions in one spill file. Each partition's
// records are encoded straight into its own window of one slab; a full
// window is written at the end of the file as one run, so a partition
// is the sequence of its runs. A record never straddles two runs.
type spillRuns struct {
	f    spillFile
	win  [][]byte   // partition p's pending records
	runs [][]extent // partition p's runs, in write order
	end  int64      // bytes written so far
}

type extent struct{ off, n int64 }

func newSpillRuns(f spillFile, p int) *spillRuns {
	slab := make([]byte, p*spillRunBytes)
	r := &spillRuns{f: f, win: make([][]byte, p), runs: make([][]extent, p)}
	for i := range r.win {
		r.win[i] = slab[i*spillRunBytes : i*spillRunBytes : (i+1)*spillRunBytes]
	}
	return r
}

// window returns partition p's window with room for one more record,
// written out first if it is nearly full. The caller appends the record
// and stores the window back in win[p].
func (r *spillRuns) window(p int) ([]byte, error) {
	w := r.win[p]
	if cap(w)-len(w) >= spillRecordRoom {
		return w, nil
	}
	return w[:0], r.write(p, w)
}

// write appends b to the file as a run of partition p.
func (r *spillRuns) write(p int, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if _, err := r.f.WriteAt(b, r.end); err != nil {
		return err
	}
	r.runs[p] = append(r.runs[p], extent{r.end, int64(len(b))})
	r.end += int64(len(b))
	return nil
}

// flush writes every pending window and counts the file's bytes as
// spilled.
func (r *spillRuns) flush() error {
	for p, w := range r.win {
		if err := r.write(p, w); err != nil {
			return err
		}
		r.win[p] = w[:0]
	}
	spillBytes.Add(r.end)
	return nil
}

// each reads partition p's runs in turn into buf (reused) and hands
// each to fn; a run holds whole records.
func (r *spillRuns) each(p int, buf []byte, fn func(run []byte) error) ([]byte, error) {
	for _, e := range r.runs[p] {
		if int64(cap(buf)) < e.n {
			buf = make([]byte, e.n)
		}
		if _, err := r.f.ReadAt(buf[:e.n], e.off); err != nil {
			return buf, err
		}
		if err := fn(buf[:e.n]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

var errMalformedSpill = errors.New("engine: malformed spill record")

// --- join ---

// A join record is a row's logical index and its binary join key,
// length-prefixed. The blocks stay in memory: only the hash index
// spills.
func appendJoinRecord(w []byte, logical int, key []byte) []byte {
	w = binary.AppendUvarint(binary.AppendUvarint(w, uint64(logical)), uint64(len(key)))
	return append(w, key...)
}

// cutJoinRecord splits one join record off the front of b.
func cutJoinRecord(b []byte) (logical int32, key, rest []byte, err error) {
	i, n := binary.Uvarint(b)
	k, m := binary.Uvarint(b[max(n, 0):])
	if n <= 0 || m <= 0 || uint64(len(b)-n-m) < k {
		return 0, nil, nil, errMalformedSpill
	}
	b = b[n+m:]
	return int32(i), b[:k], b[k:], nil
}

// joinPairs computes hash equi-join match pairs like equiJoinIdx, but
// spills to disk when budget > 0 and the hashed input's estimated
// footprint exceeds it. dir == "" spills to the OS temp dir.
func joinPairs(l, r *ColumnBlock, li, ri int, sc *Scratch, budget int64, dir string) (lidx, ridx []int32) {
	if budget > 0 {
		hashed, hi := r, ri
		if hashesLeft(l, r) {
			hashed, hi = l, li
		}
		if estHashBytes(hashed, []int{hi}) > budget {
			lidx, ridx, err := spillJoinIdx(l, r, li, ri, sc, budget, dir)
			if err == nil {
				return lidx, ridx
			}
			spillFallbacks.Add(1)
		}
	}
	return equiJoinIdx(l, r, li, ri, sc)
}

// spillJoinIdx is the Grace-partitioned counterpart of equiJoinIdx.
func spillJoinIdx(l, r *ColumnBlock, li, ri int, sc *Scratch, budget int64, dir string) (lidx, ridx []int32, err error) {
	if colKeyKind(l.Schema[li].Type) != colKeyKind(r.Schema[ri].Type) {
		// Mismatched key kinds never join (same gate as equiJoinIdx).
		return sc.idxBuf(0), sc.idxBuf(1), nil
	}
	// Input h is hashed, input 1-h probes it; 0 is the left, 1 the right.
	in, col := [2]*ColumnBlock{l, r}, [2]int{li, ri}
	h := 1
	if hashesLeft(l, r) {
		h = 0
	}

	f, err := openSpillFile(dir)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()

	// Partitions [0, P) hold the hashed input's records, [P, 2P) the
	// probing input's.
	P := spillPartitionCount(estHashBytes(in[h], []int{col[h]}), budget)
	runs := newSpillRuns(f, 2*P)
	key := sc.keyBuf()
	side := func(b *ColumnBlock, j, first int) error {
		for i, n := 0, b.Len(); i < n; i++ {
			key = b.appendKeyAt(key[:0], i, j)
			p := first + int(fnv64aBytes(key)&uint64(P-1))
			w, err := runs.window(p)
			if err != nil {
				return err
			}
			runs.win[p] = appendJoinRecord(w, i, key)
		}
		return nil
	}
	err = side(in[h], col[h], 0)
	if err == nil {
		err = side(in[1-h], col[1-h], P)
	}
	sc.putKey(key)
	if err == nil {
		err = runs.flush()
	}
	if err != nil {
		return nil, nil, err
	}

	// Process partitions in index order, collecting the match pairs as
	// physical rows: pairs[s] holds input s's row of every pair.
	var pairs [2][]int32
	var buf []byte
	for p := 0; p < P; p++ {
		ht := make(map[string][]int32)
		buf, err = runs.each(p, buf, func(run []byte) error {
			for len(run) > 0 {
				bl, k, next, err := cutJoinRecord(run)
				if err != nil {
					return err
				}
				ht[string(k)] = append(ht[string(k)], bl)
				run = next
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		buf, err = runs.each(P+p, buf, func(run []byte) error {
			for len(run) > 0 {
				pl, k, next, err := cutJoinRecord(run)
				if err != nil {
					return err
				}
				pp := int32(in[1-h].phys(int(pl)))
				for _, bl := range ht[string(k)] {
					pairs[1-h] = append(pairs[1-h], pp)
					pairs[h] = append(pairs[h], int32(in[h].phys(int(bl))))
				}
				run = next
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	spillPartitions.Add(int64(P))
	lidx, ridx = leftMajor(l, pairs[0], pairs[1], sc)
	return lidx, ridx, nil
}

// --- group-by ---

// groupSpill partitions a group-by's input rows, block by block, into
// one spill file, and aggregates it partition by partition. A record is
// the row's logical index (as a delta from the partition's previous
// record), then each column the grouping reads, once: int and float as
// their eight bytes (floats by bit pattern, so NaN payloads and −0
// survive), a bool as one byte, a string length-prefixed.
type groupSpill struct {
	g      *grouping // over the input blocks
	sub    *grouping // the same grouping over a partition's block
	cols   []int     // the input columns a record carries
	schema Schema    // their schema: a partition's block's
	runs   *spillRuns
	rows   int64   // input rows partitioned so far
	last   []int64 // per partition, the logical index of its last record
	n      []int   // per partition, its record count
}

func newGroupSpill(g *grouping, in Schema, P int, f spillFile) *groupSpill {
	s := &groupSpill{g: g, runs: newSpillRuns(f, P), last: make([]int64, P), n: make([]int, P)}
	s.sub = &grouping{aggs: g.aggs, schema: g.schema}
	at := make([]int, len(in)) // input column → 1 + its place in a record
	carry := func(j int) int {
		if j < 0 {
			return j // COUNT reads no column
		}
		if at[j] == 0 {
			s.cols, s.schema = append(s.cols, j), append(s.schema, in[j])
			at[j] = len(s.cols)
		}
		return at[j] - 1
	}
	for _, j := range g.keyIdx {
		s.sub.keyIdx = append(s.sub.keyIdx, carry(j))
	}
	for _, j := range g.aggIdx {
		s.sub.aggIdx = append(s.sub.aggIdx, carry(j))
	}
	return s
}

// add partitions b's rows, which follow every row added before.
func (s *groupSpill) add(b *ColumnBlock, sc *Scratch) error {
	for i, p := range s.partitionsOf(b, sc) {
		w, err := s.runs.window(int(p))
		if err != nil {
			return err
		}
		at, ph := s.rows+int64(i), b.phys(i)
		w = binary.AppendUvarint(w, uint64(at-s.last[p]))
		s.last[p], s.n[p] = at, s.n[p]+1
		for _, j := range s.cols {
			switch cv := &b.cols[j]; b.Schema[j].Type {
			case TypeInt:
				w = binary.LittleEndian.AppendUint64(w, uint64(cv.ints[ph]))
			case TypeFloat:
				w = binary.LittleEndian.AppendUint64(w, math.Float64bits(cv.floats[ph]))
			case TypeString:
				w = append(binary.AppendUvarint(w, uint64(len(cv.strs[ph]))), cv.strs[ph]...)
			case TypeBool:
				w = append(w, boolByte(cv.bools[ph]))
			}
		}
		s.runs.win[p] = w
	}
	s.rows += int64(b.Len())
	return nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// partitionsOf returns the partition of every logical row of b, in a
// scratch buffer: a mix of the value for one int key, the FNV-1a hash
// of the binary key encoding otherwise. Equal keys get equal
// partitions.
func (s *groupSpill) partitionsOf(b *ColumnBlock, sc *Scratch) []uint64 {
	parts := sc.codesBuf(b.Len(), 0)
	if j := s.g.keyIdx[0]; len(s.g.keyIdx) == 1 && b.Schema[j].Type == TypeInt {
		ints := b.cols[j].ints
		for i := range parts {
			parts[i] = codePartition(uint64(ints[b.phys(i)]), len(s.n))
		}
		return parts
	}
	key := sc.keyBuf()
	for i := range parts {
		key = key[:0]
		for _, j := range s.g.keyIdx {
			key = b.appendKeyAt(key, i, j)
		}
		parts[i] = fnv64aBytes(key) & uint64(len(s.n)-1)
	}
	sc.putKey(key)
	return parts
}

// result aggregates each partition as a block of its own rows — complete
// groups, since a key maps to exactly one partition — and merges the
// partial groups in global first-appearance order.
func (s *groupSpill) result(name string, sc *Scratch) (*ColumnBlock, error) {
	if err := s.runs.flush(); err != nil {
		return nil, err
	}
	// One block, sized for the largest partition, holds each partition
	// in turn; the aggregates copy what they keep.
	most := slices.Max(s.n)
	blk := &ColumnBlock{Name: name, Schema: s.schema, cols: make([]colvec, len(s.schema))}
	for k, c := range s.schema {
		blk.cols[k] = zeroColvec(c.Type, most)
	}
	logical, gids := make([]int64, 0, most), make([]int32, most)
	var raw []byte
	var first []int64
	var partials []*ColumnBlock
	for p, n := range s.n {
		if n == 0 {
			continue
		}
		for k := range blk.cols {
			cv := &blk.cols[k]
			cv.ints, cv.floats, cv.strs, cv.bools = cv.ints[:0], cv.floats[:0], cv.strs[:0], cv.bools[:0]
		}
		logical = logical[:0]
		var err error
		raw, err = s.runs.each(p, raw, func(run []byte) error {
			logical, err = s.decode(run, blk, logical)
			return err
		})
		if err != nil {
			return nil, err
		}
		blk.nrows = len(logical)
		var firstP []int32
		gids, firstP = blk.groupIDs(s.sub.keyIdx, sc, gids)
		partials = append(partials, blk.aggregateGroups(s.sub, gids, firstP, len(firstP)))
		// blk is dense, so a group's first physical row is its first
		// row in the partition, which is in global logical order.
		for _, fp := range firstP {
			first = append(first, logical[fp])
		}
	}
	out, err := concatBlocks(name+"_group", s.g.schema, partials)
	if err != nil {
		return nil, err
	}
	order := make([]int32, len(first))
	for k := range order {
		order[k] = int32(k)
	}
	sort.Slice(order, func(x, y int) bool { return first[order[x]] < first[order[y]] })
	spillPartitions.Add(int64(len(s.n)))
	return out.withSel(order), nil
}

// decode appends one run's records to blk's vectors and their logical
// indexes to logical, which holds the partition's earlier records.
// String values are substrings of one conversion of the run.
func (s *groupSpill) decode(run []byte, blk *ColumnBlock, logical []int64) ([]int64, error) {
	var strs string
	if slices.ContainsFunc(s.schema, func(c Column) bool { return c.Type == TypeString }) {
		strs = string(run)
	}
	var at int64
	if len(logical) > 0 {
		at = logical[len(logical)-1]
	}
	for off := 0; off < len(run); {
		d, w := binary.Uvarint(run[off:])
		if w <= 0 {
			return nil, errMalformedSpill
		}
		off += w
		at += int64(d)
		logical = append(logical, at)
		for k, c := range s.schema {
			cv := &blk.cols[k]
			switch c.Type {
			case TypeInt:
				if len(run)-off < 8 {
					return nil, errMalformedSpill
				}
				cv.ints = append(cv.ints, int64(binary.LittleEndian.Uint64(run[off:])))
				off += 8
			case TypeFloat:
				if len(run)-off < 8 {
					return nil, errMalformedSpill
				}
				cv.floats = append(cv.floats, math.Float64frombits(binary.LittleEndian.Uint64(run[off:])))
				off += 8
			case TypeString:
				n, w := binary.Uvarint(run[off:])
				if w <= 0 || uint64(len(run)-off-w) < n {
					return nil, errMalformedSpill
				}
				off += w
				cv.strs = append(cv.strs, strs[off:off+int(n)])
				off += int(n)
			case TypeBool:
				if off >= len(run) {
					return nil, errMalformedSpill
				}
				cv.bools = append(cv.bools, run[off] != 0)
				off++
			}
		}
	}
	return logical, nil
}

// growIdx resizes a scratch index buffer to length n, reusing capacity.
func growIdx(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
