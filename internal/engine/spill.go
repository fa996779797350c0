package engine

// Grace-style spill-to-disk for hash join and group-by. When a memory
// budget is set and the estimated hash-table footprint of an operator
// exceeds it, the operator partitions its inputs by a hash of the key —
// of the uint64 key code where the group-by has one (the vector the
// in-memory hash table keys on, computed once for the whole block),
// otherwise of the binary key encoding — writes the partitions to a
// temporary directory, and processes them one at a time — so peak
// memory is roughly 1/P of the unbounded build. Output is
// byte-identical to the in-memory path:
//
//   - Join: the in-memory path emits probe rows in logical order, and
//     within one probe row its build matches in build-scan order. Each
//     key hashes to exactly one partition, so a probe row's matches all
//     surface in that partition, in build-file order = build-scan
//     order. A counting-placement merge (per-probe-row offsets from a
//     prefix sum over match counts) then restores global probe order
//     exactly.
//   - Group-by: a group's rows land wholly in one partition, in scan
//     order, so per-group float accumulation is bit-identical; groups
//     are globally ordered by the logical index of their first
//     appearance, reproducing first-appearance order.
//
// Spill I/O failures are not fatal: the operator falls back to the
// in-memory path (counted by colstore.spill_fallbacks), trading the
// budget for completion.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
)

// hashEntryBytes is the modeled per-entry overhead of a Go map bucket
// plus the []int32 match list header — deliberately round; the budget
// is a planning estimate, not an accounting guarantee.
const hashEntryBytes = 48

// estHashBytes estimates the hash-table footprint of building on b's
// key columns: per-row bucket overhead, eight bytes per fixed-width
// key, and the summed byte length of string keys.
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

// spillTempDir creates a fresh scratch directory for one spill run,
// creating the configured parent first (a spill dir named before any
// spill happens need not exist yet).
func spillTempDir(dir string) (string, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	return os.MkdirTemp(dir, "mdspill-*")
}

// spillPartitionCount picks a power-of-two partition count so each
// partition's estimated build fits the budget, clamped to [2, 128]
// (beyond 128 the per-partition file overhead dominates any win).
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

// joinPairs computes hash equi-join match pairs like equiJoinIdx, but
// spills to disk when budget > 0 and the build side's estimated hash
// footprint exceeds it. dir == "" spills to the OS temp dir.
func joinPairs(l, r *ColumnBlock, li, ri int, buildLeft bool, sc *Scratch, budget int64, dir string) (lidx, ridx []int32) {
	if budget > 0 {
		build, bi := r, ri
		if buildLeft {
			build, bi = l, li
		}
		if estHashBytes(build, []int{bi}) > budget {
			lidx, ridx, err := spillJoinIdx(l, r, li, ri, buildLeft, sc, budget, dir)
			if err == nil {
				return lidx, ridx
			}
			spillFallbacks.Add(1)
		}
	}
	return equiJoinIdx(l, r, li, ri, buildLeft, sc)
}

// spillJoinIdx is the Grace-partitioned counterpart of equiJoinIdx.
func spillJoinIdx(l, r *ColumnBlock, li, ri int, buildLeft bool, sc *Scratch, budget int64, dir string) (lidx, ridx []int32, err error) {
	build, probe := r, l
	bi, pi := ri, li
	swapped := false
	if buildLeft {
		build, probe = l, r
		bi, pi = li, ri
		swapped = true
	}
	lidx, ridx = sc.idxBuf(0), sc.idxBuf(1)
	if colKeyKind(l.Schema[li].Type) != colKeyKind(r.Schema[ri].Type) {
		// Mismatched key kinds never join (same gate as equiJoinIdx).
		return lidx, ridx, nil
	}

	tmp, err := spillTempDir(dir)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	P := spillPartitionCount(estHashBytes(build, []int{bi}), budget)
	bparts, err := newSpillParts(tmp, "build", P)
	if err != nil {
		return nil, nil, err
	}
	defer bparts.close()
	pparts, err := newSpillParts(tmp, "probe", P)
	if err != nil {
		return nil, nil, err
	}
	defer pparts.close()

	// Partition the build side: records of (phys, key).
	key := sc.keyBuf()
	for i, n := 0, build.Len(); i < n; i++ {
		key = build.appendKeyAt(key[:0], i, bi)
		p := fnv64aBytes(key) & uint64(P-1)
		if err := bparts.record(p, uint64(build.phys(i)), key); err != nil {
			sc.putKey(key)
			return nil, nil, err
		}
	}
	// Partition the probe side: records of (logical, phys, key). The
	// logical index drives the order-restoring merge.
	for i, n := 0, probe.Len(); i < n; i++ {
		key = probe.appendKeyAt(key[:0], i, pi)
		p := fnv64aBytes(key) & uint64(P-1)
		if err := pparts.record2(p, uint64(i), uint64(probe.phys(i)), key); err != nil {
			sc.putKey(key)
			return nil, nil, err
		}
	}
	sc.putKey(key)
	if err := bparts.flush(); err != nil {
		return nil, nil, err
	}
	if err := pparts.flush(); err != nil {
		return nil, nil, err
	}
	spillPartitions.Add(int64(P))
	spillBytes.Add(bparts.bytes + pparts.bytes)

	// Process partitions in index order, collecting match pairs and
	// per-probe-row match counts.
	type pair struct{ pl, pp, bp int32 }
	pairs := make([][]pair, P)
	counts := make([]int32, probe.Len())
	var keyBuf []byte
	for p := 0; p < P; p++ {
		br, err := bparts.reader(p)
		if err != nil {
			return nil, nil, err
		}
		ht := make(map[string][]int32)
		for {
			phys, ok, err := readUvarintEOF(br)
			if !ok {
				if err != nil {
					return nil, nil, err
				}
				break
			}
			keyBuf, err = readKey(br, keyBuf)
			if err != nil {
				return nil, nil, err
			}
			ht[string(keyBuf)] = append(ht[string(keyBuf)], int32(phys))
		}
		pr, err := pparts.reader(p)
		if err != nil {
			return nil, nil, err
		}
		for {
			logical, ok, err := readUvarintEOF(pr)
			if !ok {
				if err != nil {
					return nil, nil, err
				}
				break
			}
			phys, err := binary.ReadUvarint(pr)
			if err != nil {
				return nil, nil, err
			}
			keyBuf, err = readKey(pr, keyBuf)
			if err != nil {
				return nil, nil, err
			}
			matches := ht[string(keyBuf)]
			if len(matches) == 0 {
				continue
			}
			counts[logical] += int32(len(matches))
			for _, bp := range matches {
				pairs[p] = append(pairs[p], pair{pl: int32(logical), pp: int32(phys), bp: bp})
			}
		}
	}

	// Counting placement: offsets[i] is where probe row i's first match
	// belongs globally; partitions replay in index order, and within a
	// partition pairs are already in (probe order, build order).
	total := 0
	offsets := make([]int32, len(counts))
	for i, c := range counts {
		offsets[i] = int32(total)
		total += int(c)
	}
	lidx, ridx = growIdx(lidx, total), growIdx(ridx, total)
	for p := 0; p < P; p++ {
		for _, pr := range pairs[p] {
			k := offsets[pr.pl]
			offsets[pr.pl]++
			if swapped {
				lidx[k], ridx[k] = pr.bp, pr.pp
			} else {
				lidx[k], ridx[k] = pr.pp, pr.bp
			}
		}
	}
	return lidx, ridx, nil
}

// spillGroupBy is the Grace-partitioned counterpart of the in-memory
// group-by: logical rows are partitioned by composite-key hash, each
// partition is grouped and aggregated as a sub-block (bounding the
// group hash table), and the partial groups — complete groups, since a
// key maps to exactly one partition — merge in global first-appearance
// order. Keyless group-bys never take this path (one global group
// needs no hash table).
func (b *ColumnBlock) spillGroupBy(g *grouping, sc *Scratch, budget int64, dir string) (*ColumnBlock, error) {
	tmp, err := spillTempDir(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	P := spillPartitionCount(estHashBytes(b, g.keyIdx), budget)
	parts, err := newSpillParts(tmp, "group", P)
	if err != nil {
		return nil, err
	}
	defer parts.close()

	n := b.Len()
	var codes []uint64
	if len(g.keyIdx) == 1 {
		if c := sc.codesBuf(n, 0); b.keyCodes(g.keyIdx[0], c) {
			codes = c
		}
	}
	if codes != nil {
		// Equal keys have equal codes, so a hash of the code keeps a
		// group whole.
		for i, c := range codes {
			if err := parts.record(codePartition(c, P), uint64(i), nil); err != nil {
				return nil, err
			}
		}
	} else {
		key := sc.keyBuf()
		for i := 0; i < n; i++ {
			key = key[:0]
			for _, j := range g.keyIdx {
				key = b.appendKeyAt(key, i, j)
			}
			if err := parts.record(fnv64aBytes(key)&uint64(P-1), uint64(i), nil); err != nil {
				sc.putKey(key)
				return nil, err
			}
		}
		sc.putKey(key)
	}
	if err := parts.flush(); err != nil {
		return nil, err
	}
	spillPartitions.Add(int64(P))
	spillBytes.Add(parts.bytes)

	// Each partition aggregates to a block of complete groups; first[k]
	// is the global logical index of the first row of the k-th group
	// across the concatenated partition outputs.
	var partials []*ColumnBlock
	var first []int32
	for p := 0; p < P; p++ {
		logical, err := parts.readIndexes(p)
		if err != nil {
			return nil, err
		}
		if len(logical) == 0 {
			continue
		}
		physSel := make([]int32, len(logical))
		for k, li := range logical {
			physSel[k] = int32(b.phys(int(li)))
		}
		sub := b.withSel(physSel)
		gids, firstP := sub.groupIDs(g.keyIdx, sc)
		partials = append(partials, sub.aggregateGroups(g, gids, firstP, len(firstP)))
		// Group ids are assigned in first-appearance order, so the first
		// occurrence of id g in gids is group g's first row; partition
		// scan order preserves global logical order.
		next := int32(0)
		for k, gid := range gids {
			if gid == next {
				first = append(first, logical[k])
				next++
			}
		}
	}
	out, err := concatBlocks(b.Name+"_group", g.schema, partials)
	if err != nil {
		return nil, err
	}
	order := make([]int32, len(first))
	for k := range order {
		order[k] = int32(k)
	}
	sort.Slice(order, func(x, y int) bool { return first[order[x]] < first[order[y]] })
	return out.withSel(order), nil
}

// growIdx resizes a scratch index buffer to length n, reusing capacity.
func growIdx(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// spillParts manages one side's P partition files. Records batch in a
// per-partition buffer and reach the file spillFlushBytes at a time.
type spillParts struct {
	files []*os.File
	bufs  [][]byte
	bytes int64
}

// spillFlushBytes is the size a partition's record buffer is written
// out at.
const spillFlushBytes = 32 << 10

func newSpillParts(dir, name string, p int) (*spillParts, error) {
	sp := &spillParts{files: make([]*os.File, 0, p), bufs: make([][]byte, p)}
	for i := 0; i < p; i++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%03d.part", name, i)))
		if err != nil {
			sp.close()
			return nil, err
		}
		sp.files = append(sp.files, f)
	}
	return sp, nil
}

// record writes (a, key) to partition p; a nil key writes just a.
func (sp *spillParts) record(p, a uint64, key []byte) error {
	buf := binary.AppendUvarint(sp.bufs[p], a)
	if key != nil {
		buf = appendSpillKey(buf, key)
	}
	return sp.put(p, buf)
}

// record2 writes (a, b, key) to partition p.
func (sp *spillParts) record2(p, a, b uint64, key []byte) error {
	buf := binary.AppendUvarint(binary.AppendUvarint(sp.bufs[p], a), b)
	return sp.put(p, appendSpillKey(buf, key))
}

func appendSpillKey(buf, key []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(key))), key...)
}

// put stores partition p's extended buffer, writing it out once full.
func (sp *spillParts) put(p uint64, buf []byte) error {
	sp.bytes += int64(len(buf) - len(sp.bufs[p]))
	if len(buf) >= spillFlushBytes {
		if _, err := sp.files[p].Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	sp.bufs[p] = buf
	return nil
}

func (sp *spillParts) flush() error {
	for p, buf := range sp.bufs {
		if _, err := sp.files[p].Write(buf); err != nil {
			return err
		}
		sp.bufs[p] = buf[:0]
	}
	return nil
}

// reader rewinds partition p's file and returns a buffered reader over
// it. Writers must have been flushed.
func (sp *spillParts) reader(p int) (*bufio.Reader, error) {
	if _, err := sp.files[p].Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return bufio.NewReader(sp.files[p]), nil
}

// readIndexes reads partition p as a plain uvarint sequence (the
// group-by spill layout).
func (sp *spillParts) readIndexes(p int) ([]int32, error) {
	if _, err := sp.files[p].Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(sp.files[p])
	if err != nil {
		return nil, err
	}
	var out []int32
	for len(raw) > 0 {
		v, w := binary.Uvarint(raw)
		if w <= 0 {
			return nil, fmt.Errorf("engine: malformed spill record in %s", sp.files[p].Name())
		}
		out = append(out, int32(v))
		raw = raw[w:]
	}
	return out, nil
}

func (sp *spillParts) close() {
	for _, f := range sp.files {
		f.Close() //lint:allow errdrop scratch files about to be removed; reads already completed or failed
	}
}

// readUvarintEOF reads one uvarint, reporting ok=false at a clean EOF
// (err nil) or on a real error (err set).
func readUvarintEOF(r *bufio.Reader) (uint64, bool, error) {
	v, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return v, true, nil
}

// readKey reads a uvarint-length-prefixed key into buf (reused).
func readKey(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return buf, err
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	return buf, nil
}
