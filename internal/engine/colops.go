package engine

// Vectorized relational operators over ColumnBlocks — the engine's
// only operator implementations. golden_test.go checks them against a
// reference interpreter on randomized inputs. Determinism rules:
// group-by and distinct emit in first-appearance order, joins emit in
// probe order with build-side insertion order within a key, and sorts
// are stable.

import (
	"fmt"
	"slices"
	"sort"
)

// --- selections ---

// emptySel is the canonical empty selection. Operator outputs must
// never carry a nil sel (nil means identity), so an empty result gets
// this shared zero-length vector instead.
var emptySel = []int32{}

// withSel returns a shallow copy of b whose logical rows are the given
// absolute (physical) selection.
func (b *ColumnBlock) withSel(sel []int32) *ColumnBlock {
	if sel == nil {
		sel = emptySel
	}
	return &ColumnBlock{Name: b.Name, Schema: b.Schema.Clone(), nrows: b.nrows, sel: sel, cols: b.cols}
}

// whereFunc keeps logical rows for which pred holds. pred receives the
// logical row index and reads columns through the block.
func (b *ColumnBlock) whereFunc(pred func(i int) bool) *ColumnBlock {
	n := b.Len()
	rowsScanned.Add(int64(n))
	var sel []int32
	for i := 0; i < n; i++ {
		if pred(i) {
			sel = append(sel, int32(b.phys(i)))
		}
	}
	return b.withSel(sel)
}

// WhereEq keeps rows whose column equals v, with typed fast paths over
// the column vector; cross-type numeric comparisons fall back to
// Value.Equal and keep its exact semantics.
func (b *ColumnBlock) WhereEq(col string, v Value) (*ColumnBlock, error) {
	j, err := b.ColIndex(col)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	rowsScanned.Add(int64(n))
	var sel []int32
	switch {
	case b.Schema[j].Type == TypeInt && v.typ == TypeInt:
		ints := b.cols[j].ints
		for i := 0; i < n; i++ {
			if p := b.phys(i); ints[p] == v.i() {
				sel = append(sel, int32(p))
			}
		}
	case b.Schema[j].Type == TypeString && v.typ == TypeString:
		strs := b.cols[j].strs
		for i := 0; i < n; i++ {
			if p := b.phys(i); strs[p] == v.s {
				sel = append(sel, int32(p))
			}
		}
	case b.Schema[j].Type == TypeBool && v.typ == TypeBool:
		bools := b.cols[j].bools
		for i := 0; i < n; i++ {
			if p := b.phys(i); bools[p] == v.b() {
				sel = append(sel, int32(p))
			}
		}
	default:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if b.valuePhys(p, j).Equal(v) {
				sel = append(sel, int32(p))
			}
		}
	}
	return b.withSel(sel), nil
}

// --- shape operators ---

// Project returns a block with only the named columns, in order. The
// column vectors and selection are shared, not copied.
func (b *ColumnBlock) Project(cols ...string) (*ColumnBlock, error) {
	idx := make([]int, len(cols))
	schema := make(Schema, len(cols))
	for i, c := range cols {
		j, err := b.ColIndex(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
		schema[i] = b.Schema[j]
	}
	nc := make([]colvec, len(idx))
	for i, j := range idx {
		nc[i] = b.cols[j]
	}
	return &ColumnBlock{Name: b.Name, Schema: schema, nrows: b.nrows, sel: b.sel, cols: nc}, nil
}

// Rename returns a shallow copy with column old renamed to new.
func (b *ColumnBlock) Rename(oldName, newName string) (*ColumnBlock, error) {
	j, err := b.ColIndex(oldName)
	if err != nil {
		return nil, err
	}
	nb := *b
	nb.Schema = b.Schema.Clone()
	nb.Schema[j].Name = newName
	return &nb, nil
}

// Limit returns at most n logical rows.
func (b *ColumnBlock) Limit(n int) *ColumnBlock {
	if n < 0 {
		n = 0
	}
	if n >= b.Len() {
		nb := *b
		return &nb
	}
	if b.sel != nil {
		return b.withSel(b.sel[:n])
	}
	nb := *b
	nb.nrows = n
	return &nb
}

// --- key codes ---

// colKeyKind partitions column types into key spaces: values of
// different kinds never share a key (Value.Key tags them differently).
func colKeyKind(t Type) int {
	switch t {
	case TypeInt, TypeFloat:
		return 0
	case TypeString:
		return 1
	default:
		return 2
	}
}

// keyCodes fills codes[i] with the uint64 key code of logical row i of
// column j. Codes are pre-encoded join/group keys: equal codes iff
// equal Value.Key strings, within one key kind. For int columns
// containing an int64 not exactly representable as float64 the uint64
// space cannot stay collision-free against float bit patterns, so it
// reports ok=false and callers fall back to binary byte keys.
func (b *ColumnBlock) keyCodes(j int, codes []uint64) (ok bool) {
	n := b.Len()
	switch b.Schema[j].Type {
	case TypeInt:
		ints := b.cols[j].ints
		for i := 0; i < n; i++ {
			bits, tag := intKeyBits(ints[b.phys(i)])
			if tag == keyTagBig {
				return false
			}
			codes[i] = bits
		}
	case TypeFloat:
		fs := b.cols[j].floats
		for i := 0; i < n; i++ {
			codes[i] = numKeyBits(fs[b.phys(i)])
		}
	case TypeBool:
		bools := b.cols[j].bools
		for i := 0; i < n; i++ {
			if bools[b.phys(i)] {
				codes[i] = 1
			} else {
				codes[i] = 0
			}
		}
	default:
		return false
	}
	return true
}

// appendKeyAt appends the binary key of logical row i, column j.
func (b *ColumnBlock) appendKeyAt(dst []byte, i, j int) []byte {
	p := b.phys(i)
	switch b.Schema[j].Type {
	case TypeInt:
		bits, tag := intKeyBits(b.cols[j].ints[p])
		return appendTagged64(dst, tag, bits)
	case TypeFloat:
		return appendTagged64(dst, keyTagNum, numKeyBits(b.cols[j].floats[p]))
	case TypeString:
		return appendStringKey(dst, b.cols[j].strs[p])
	case TypeBool:
		return appendBoolKey(dst, b.cols[j].bools[p])
	}
	return append(dst, '?')
}

// --- hash equi-join ---

func prefixSchemaNamed(name string, s Schema) Schema {
	out := make(Schema, len(s))
	for i, c := range s {
		out[i] = Column{Name: name + "." + c.Name, Type: c.Type}
	}
	return out
}

// gather materializes the logical rows named by physical indexes idx
// out of cv into a fresh vector.
func gather(cv colvec, typ Type, idx []int32) colvec {
	var out colvec
	switch typ {
	case TypeInt:
		out.ints = make([]int64, len(idx))
		for i, p := range idx {
			out.ints[i] = cv.ints[p]
		}
	case TypeFloat:
		out.floats = make([]float64, len(idx))
		for i, p := range idx {
			out.floats[i] = cv.floats[p]
		}
	case TypeString:
		out.strs = make([]string, len(idx))
		for i, p := range idx {
			out.strs[i] = cv.strs[p]
		}
	case TypeBool:
		out.bools = make([]bool, len(idx))
		for i, p := range idx {
			out.bools[i] = cv.bools[p]
		}
	}
	return out
}

// joinTable is the build side of a hash equi-join: the build block's
// physical row positions keyed by join key, in insertion (logical scan)
// order within a key. It is built once and may be probed by any number
// of blocks, which is what lets a storage scan stream its partitions
// past one table.
type joinTable struct {
	build *ColumnBlock
	bi    int
	// strs keys a string column. codes keys a numeric or bool column by
	// uint64 key code; it is nil when the build side holds an int64
	// that is not exactly a float64, for which codes cannot stay
	// collision-free. bytes keys by binary byte key and is built on
	// first need: when codes is nil, or a probe block holds such an int.
	strs  map[string][]int32
	codes map[uint64][]int32
	bytes map[string][]int32
}

func newJoinTable(build *ColumnBlock, bi int, sc *Scratch) *joinTable {
	jt := &joinTable{build: build, bi: bi}
	n := build.Len()
	if build.Schema[bi].Type == TypeString {
		jt.strs = make(map[string][]int32, n)
		bstrs := build.cols[bi].strs
		for i := 0; i < n; i++ {
			p := int32(build.phys(i))
			jt.strs[bstrs[p]] = append(jt.strs[bstrs[p]], p)
		}
		return jt
	}
	bcodes := sc.codesBuf(n, 0)
	if build.keyCodes(bi, bcodes) {
		jt.codes = make(map[uint64][]int32, n)
		for i, c := range bcodes {
			jt.codes[c] = append(jt.codes[c], int32(build.phys(i)))
		}
	}
	return jt
}

// byteKeys returns the binary-byte-key table, building it on first use.
func (jt *joinTable) byteKeys(sc *Scratch) map[string][]int32 {
	if jt.bytes == nil {
		n := jt.build.Len()
		jt.bytes = make(map[string][]int32, n)
		buf := sc.keyBuf()
		for i := 0; i < n; i++ {
			buf = jt.build.appendKeyAt(buf[:0], i, jt.bi)
			jt.bytes[string(buf)] = append(jt.bytes[string(buf)], int32(jt.build.phys(i)))
		}
		sc.putKey(buf)
	}
	return jt.bytes
}

// probe appends to pidx and bidx the physical (probe, build) positions
// of every match of probe's column pi, in probe logical order with
// build insertion order within a key. Mismatched key kinds (string
// against numeric, say) never join.
func (jt *joinTable) probe(probe *ColumnBlock, pi int, sc *Scratch, pidx, bidx []int32) ([]int32, []int32) {
	if colKeyKind(jt.build.Schema[jt.bi].Type) != colKeyKind(probe.Schema[pi].Type) {
		return pidx, bidx
	}
	n := probe.Len()
	if jt.strs != nil {
		pstrs := probe.cols[pi].strs
		for i := 0; i < n; i++ {
			p := int32(probe.phys(i))
			for _, bp := range jt.strs[pstrs[p]] {
				pidx, bidx = append(pidx, p), append(bidx, bp)
			}
		}
		return pidx, bidx
	}
	if jt.codes != nil {
		if pcodes := sc.codesBuf(n, 1); probe.keyCodes(pi, pcodes) {
			for i, c := range pcodes {
				if m := jt.codes[c]; len(m) > 0 {
					p := int32(probe.phys(i))
					for _, bp := range m {
						pidx, bidx = append(pidx, p), append(bidx, bp)
					}
				}
			}
			return pidx, bidx
		}
	}
	ht := jt.byteKeys(sc)
	buf := sc.keyBuf()
	for i := 0; i < n; i++ {
		buf = probe.appendKeyAt(buf[:0], i, pi)
		p := int32(probe.phys(i))
		for _, bp := range ht[string(buf)] {
			pidx, bidx = append(pidx, p), append(bidx, bp)
		}
	}
	sc.putKey(buf)
	return pidx, bidx
}

// equiJoinIdx computes the matching (left, right) physical row-index
// pairs of the hash equi-join of l and r on columns li and ri.
// buildLeft selects the hash-build side explicitly; emission order is
// probe order with build-side insertion order within a key, so the
// build side fully determines output order. The returned slices come
// from sc's index buffers — callers must hand them back with putIdx
// once consumed. sc must be non-nil.
func equiJoinIdx(l, r *ColumnBlock, li, ri int, buildLeft bool, sc *Scratch) (lidx, ridx []int32) {
	if buildLeft {
		ridx, lidx = newJoinTable(l, li, sc).probe(r, ri, sc, sc.idxBuf(1), sc.idxBuf(0))
		return lidx, ridx
	}
	return newJoinTable(r, ri, sc).probe(l, li, sc, sc.idxBuf(0), sc.idxBuf(1))
}

// equiJoinBudget computes the hash equi-join of b and r on leftCol =
// rightCol. The hash table is built on the smaller input (ties build on
// the right) from pre-encoded uint64 key codes; no per-row key strings
// are constructed. Output columns are prefixed with the block names.
// When budget > 0 and the build side's estimated hash footprint
// exceeds it, the join Grace-partitions to disk under dir (see
// spill.go). Output is byte-identical either way.
func (b *ColumnBlock) equiJoinBudget(r *ColumnBlock, leftCol, rightCol string, sc *Scratch, budget int64, dir string) (*ColumnBlock, error) {
	sc = sc.orNew()
	l := b
	li, err := l.ColIndex(leftCol)
	if err != nil {
		return nil, fmt.Errorf("join left: %w", err)
	}
	ri, err := r.ColIndex(rightCol)
	if err != nil {
		return nil, fmt.Errorf("join right: %w", err)
	}
	// Build on the smaller side; ties build on the right.
	lidx, ridx := joinPairs(l, r, li, ri, l.Len() < r.Len(), sc, budget, dir)

	out := &ColumnBlock{
		Name:   l.Name + "_" + r.Name,
		Schema: append(prefixSchemaNamed(l.Name, l.Schema), prefixSchemaNamed(r.Name, r.Schema)...),
		nrows:  len(lidx),
		cols:   make([]colvec, 0, len(l.Schema)+len(r.Schema)),
	}
	for j := range l.Schema {
		out.cols = append(out.cols, gather(l.cols[j], l.Schema[j].Type, lidx))
	}
	for j := range r.Schema {
		out.cols = append(out.cols, gather(r.cols[j], r.Schema[j].Type, ridx))
	}
	sc.putIdx(0, lidx)
	sc.putIdx(1, ridx)
	return out, nil
}

// joinStream is the hash equi-join of a storage scan with a table, run
// one scan partition at a time: the table is hashed once, each
// partition probes it, and only a partition's matching rows are kept,
// so the scan side is never concatenated. The in-memory join builds on
// the smaller input and emits in the other's order; which side is
// smaller is not known until the last partition has been filtered, so
// the stream always builds on the table and, if the scan turns out to
// be the smaller side, result reorders the pairs into the order a
// build on it would have emitted.
type joinStream struct {
	op    *qop
	sc    *Scratch
	r     *ColumnBlock // the decoded table
	jt    *joinTable   // r hashed on the join column
	lrows int          // scan rows probed so far
	// lparts holds each partition's matching rows, gathered dense;
	// ridx the table row of every one of them, in the same order.
	lschema Schema
	lparts  []*ColumnBlock
	ridx    []int32
}

// newJoinStream prepares to stream the chain's scan through the join op
// records. It returns nil when the table's hash table would exceed the
// memory budget: that join has to Grace-partition both inputs, which
// equiJoinBudget does over the concatenated scan.
func newJoinStream(op *qop, c *chain) (*joinStream, error) {
	r, err := decodeTable(op.joinT)
	if err != nil {
		return nil, err
	}
	ri, err := r.ColIndex(op.joinR)
	if err != nil {
		return nil, fmt.Errorf("join right: %w", err)
	}
	if c.budget > 0 && estHashBytes(r, []int{ri}) > c.budget {
		return nil, nil
	}
	return &joinStream{op: op, sc: c.sc, r: r, jt: newJoinTable(r, ri, c.sc)}, nil
}

// probe joins one partition of the scan.
func (s *joinStream) probe(part *ColumnBlock) error {
	li, err := part.ColIndex(s.op.joinL)
	if err != nil {
		return fmt.Errorf("join left: %w", err)
	}
	var lidx []int32
	lidx, s.ridx = s.jt.probe(part, li, s.sc, s.sc.idxBuf(0), s.ridx)
	s.lrows += part.Len()
	s.lschema = part.Schema
	if len(lidx) > 0 {
		s.lparts = append(s.lparts, part.withSel(lidx).Dense())
	}
	s.sc.putIdx(0, lidx)
	return nil
}

// result assembles the join output, named and shaped as the op records.
func (s *joinStream) result() (*ColumnBlock, error) {
	l, err := concatBlocks(s.op.name, s.lschema, s.lparts)
	if err != nil {
		return nil, err
	}
	out := &ColumnBlock{Name: s.op.name, Schema: s.op.schema.Clone(), nrows: len(s.ridx), cols: slices.Clone(l.cols)}
	for j := range s.r.Schema {
		out.cols = append(out.cols, gather(s.r.cols[j], s.r.Schema[j].Type, s.ridx))
	}
	if s.lrows >= s.r.Len() {
		return out, nil
	}
	// The scan is the smaller side, so the in-memory join would have
	// built on it and emitted in table order, scan order within one
	// table row. Pairs are in scan order already; a stable sort on the
	// table row (the table is dense: position is order) is that order.
	order := make([]int32, len(s.ridx))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(x, y int) bool { return s.ridx[order[x]] < s.ridx[order[y]] })
	return out.withSel(order), nil
}

// groupStream is a budgeted, keyed group-by fed one partition at a
// time: a storage scan's, or the chain's state as the only one. While
// the hash estimate, projected from the stored rows seen to all the
// scan decodes, fits the budget the partitions are buffered, and if it
// never crosses they are concatenated and grouped in memory. Once it
// crosses, P is fixed from that projection, and every buffered and
// later row goes to a groupSpill as it arrives, so a scan is never
// concatenated and a spilled partition is not kept.
type groupStream struct {
	op    *qop
	c     *chain
	total int64     // the stored rows the input's scan decodes
	g     *grouping // resolved against the first partition

	parts  []*ColumnBlock // buffered while the estimate fits
	est    int64          // estHashBytes of parts
	stored int64          // the stored rows behind parts
	inMem  bool           // never spill: no spill file, or this is the rescan
	spill  *groupSpill    // non-nil once the estimate crossed
	// spillErr is the spill's I/O error: the rows on disk are lost.
	spillErr error
}

// add takes one partition, with the leading run applied; stored is its
// row count as the storage returned it. It reports whether it kept the
// partition: only a buffered one is kept.
func (s *groupStream) add(part *ColumnBlock, stored int) (bool, error) {
	if s.g == nil {
		var err error
		if s.g, err = part.newGrouping(s.op.cols, s.op.aggs); err != nil {
			return false, err
		}
	}
	if s.spill != nil {
		if s.spillErr == nil {
			s.spillErr = s.spill.add(part, s.c.sc)
		}
		return false, nil
	}
	s.parts, s.stored = append(s.parts, part), s.stored+int64(stored)
	s.est += estHashBytes(part, s.g.keyIdx)
	projected := s.est
	if s.stored > 0 {
		projected = max(s.est, int64(float64(s.est)/float64(s.stored)*float64(s.total)))
	}
	if s.inMem || projected <= s.c.budget {
		return true, nil
	}
	open := openSpillFile
	if s.c.openSpill != nil {
		open = s.c.openSpill
	}
	f, err := open(s.c.spillDir)
	if err != nil {
		spillFallbacks.Add(1)
		s.inMem = true
		return true, nil
	}
	s.spill = newGroupSpill(s.g, part.Schema, spillPartitionCount(projected, s.c.budget), f)
	for _, b := range s.parts {
		if s.spillErr == nil {
			s.spillErr = s.spill.add(b, s.c.sc)
		}
	}
	s.parts = nil
	return false, nil
}

// result returns the group-by of everything added, named for an input
// named name, and removes the spill file. A spill error is also left in
// spillErr.
func (s *groupStream) result(name string) (*ColumnBlock, error) {
	defer s.close()
	if s.spill == nil {
		b := s.parts[0]
		if len(s.parts) > 1 {
			var err error
			if b, err = concatBlocks(name, b.Schema, s.parts); err != nil {
				return nil, err
			}
		}
		out := b.groupByMem(s.g, s.c.sc)
		out.Name = name + "_group"
		return out, nil
	}
	var out *ColumnBlock
	if s.spillErr == nil {
		out, s.spillErr = s.spill.result(name, s.c.sc)
	}
	return out, s.spillErr
}

// close removes the spill file, if there is one.
func (s *groupStream) close() {
	if s.spill != nil {
		s.spill.runs.f.Close() //lint:allow errdrop scratch file being discarded; its reads are done or failed
	}
}

// --- group-by ---

// colAggState is the per-(group, aggregate) accumulator. Min/max track
// physical row positions so emission can reconstruct the exact first
// extreme Value (payload bits included) without boxing during the scan.
type colAggState struct {
	sum        float64
	minP, maxP int32
	seen       bool
}

// groupIDs assigns a dense group id to every logical row, in
// first-appearance order, keyed by the composite key columns. It
// returns one id per row, in dst's storage when it is large enough,
// plus the physical row of each group's first appearance.
func (b *ColumnBlock) groupIDs(keyIdx []int, sc *Scratch, dst []int32) (gids []int32, firstP []int32) {
	n := b.Len()
	gids = growIdx(dst, n)
	if len(keyIdx) == 1 {
		j := keyIdx[0]
		switch b.Schema[j].Type {
		case TypeString:
			strs := b.cols[j].strs
			m := make(map[string]int32)
			for i := 0; i < n; i++ {
				p := b.phys(i)
				g, ok := m[strs[p]]
				if !ok {
					g = int32(len(firstP))
					m[strs[p]] = g
					firstP = append(firstP, int32(p))
				}
				gids[i] = g
			}
			return gids, firstP
		case TypeInt, TypeFloat, TypeBool:
			codes := sc.codesBuf(n, 0)
			if b.keyCodes(j, codes) {
				m := make(map[uint64]int32)
				for i, c := range codes {
					g, ok := m[c]
					if !ok {
						g = int32(len(firstP))
						m[c] = g
						firstP = append(firstP, int32(b.phys(i)))
					}
					gids[i] = g
				}
				return gids, firstP
			}
		}
	}
	// Composite (or big-int single) keys: binary byte encoding.
	m := make(map[string]int32)
	buf := sc.keyBuf()
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for _, j := range keyIdx {
			buf = b.appendKeyAt(buf, i, j)
		}
		g, ok := m[string(buf)]
		if !ok {
			g = int32(len(firstP))
			m[string(buf)] = g
			firstP = append(firstP, int32(b.phys(i)))
		}
		gids[i] = g
	}
	sc.putKey(buf)
	return gids, firstP
}

// GroupBy groups the block by the given key columns and computes the
// requested aggregates per group in one pass over the column vectors,
// emitting groups in first-appearance order. With no key columns a
// single global group is produced, even over empty input (COUNT = 0,
// SUM/AVG = 0, MIN/MAX the zero of the column's type). The output is a
// dense block: keys then aggregates.
func (b *ColumnBlock) GroupBy(keys []string, aggs []Aggregate, sc *Scratch) (*ColumnBlock, error) {
	g, err := b.newGrouping(keys, aggs)
	if err != nil {
		return nil, err
	}
	return b.groupByMem(g, sc.orNew()), nil
}

// grouping is a resolved group-by: key and aggregate column indexes
// (-1 for COUNT) plus the output schema (keys then aggregates).
type grouping struct {
	aggs           []Aggregate
	keyIdx, aggIdx []int
	schema         Schema
}

func (b *ColumnBlock) newGrouping(keys []string, aggs []Aggregate) (*grouping, error) {
	g := &grouping{aggs: aggs, keyIdx: make([]int, len(keys)), aggIdx: make([]int, len(aggs))}
	for i, k := range keys {
		j, err := b.ColIndex(k)
		if err != nil {
			return nil, err
		}
		g.keyIdx[i] = j
		g.schema = append(g.schema, Column{Name: k, Type: b.Schema[j].Type})
	}
	for i, a := range aggs {
		name := a.As
		if name == "" {
			name = a.Fn.String() + "_" + a.Col
		}
		if a.Fn == AggCount { // COUNT takes no column
			g.aggIdx[i] = -1
			g.schema = append(g.schema, Column{Name: name, Type: TypeInt})
			continue
		}
		j, err := b.ColIndex(a.Col)
		if err != nil {
			return nil, err
		}
		g.aggIdx[i] = j
		typ := TypeFloat
		if a.Fn == AggMin || a.Fn == AggMax {
			typ = b.Schema[j].Type
		}
		g.schema = append(g.schema, Column{Name: name, Type: typ})
	}
	if err := g.schema.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// groupByMem is the in-memory group-by.
func (b *ColumnBlock) groupByMem(g *grouping, sc *Scratch) *ColumnBlock {
	n := b.Len()
	var gids, firstP []int32
	if len(g.keyIdx) == 0 {
		gids = make([]int32, n)
		if n > 0 {
			firstP = []int32{int32(b.phys(0))}
		}
	} else {
		gids, firstP = b.groupIDs(g.keyIdx, sc, nil)
	}
	nGroups := len(firstP)
	if len(g.keyIdx) == 0 && nGroups == 0 {
		// SQL semantics: a global aggregate over empty input yields one
		// group.
		nGroups = 1
	}
	return b.aggregateGroups(g, gids, firstP, nGroups)
}

// aggregateGroups runs the accumulation passes and emits one output row
// per group, in group-id order. gids/firstP come from groupIDs over the
// same block, so per-group accumulation order is the block's logical
// row order; nGroups exceeds len(firstP) only for the single keyless
// group over empty input.
func (b *ColumnBlock) aggregateGroups(g *grouping, gids, firstP []int32, nGroups int) *ColumnBlock {
	n := b.Len()
	out := &ColumnBlock{
		Name:   b.Name + "_group",
		Schema: g.schema.Clone(),
		nrows:  nGroups,
		cols:   make([]colvec, 0, len(g.schema)),
	}
	for _, j := range g.keyIdx {
		out.cols = append(out.cols, gather(b.cols[j], b.Schema[j].Type, firstP))
	}

	// Group sizes, shared by COUNT and AVG across all aggregates.
	counts := make([]int64, nGroups)
	for _, gid := range gids {
		counts[gid]++
	}

	// One accumulation pass per aggregate, column-at-a-time. Per-group
	// sums accumulate in logical row order, which fixes the float
	// result bit for bit.
	for ai, a := range g.aggs {
		if a.Fn == AggCount {
			out.cols = append(out.cols, colvec{ints: counts})
			continue
		}
		sts := make([]colAggState, nGroups)
		j := g.aggIdx[ai]
		cv, typ := b.cols[j], b.Schema[j].Type
		switch typ {
		case TypeInt:
			for i := 0; i < n; i++ {
				p, st := int32(b.phys(i)), &sts[gids[i]]
				v := cv.ints[p]
				st.sum += float64(v)
				if !st.seen || v < cv.ints[st.minP] {
					st.minP = p
				}
				if !st.seen || cv.ints[st.maxP] < v {
					st.maxP = p
				}
				st.seen = true
			}
		case TypeFloat:
			for i := 0; i < n; i++ {
				p, st := int32(b.phys(i)), &sts[gids[i]]
				v := cv.floats[p]
				st.sum += v
				if !st.seen || v < cv.floats[st.minP] {
					st.minP = p
				}
				if !st.seen || cv.floats[st.maxP] < v {
					st.maxP = p
				}
				st.seen = true
			}
		case TypeString:
			for i := 0; i < n; i++ {
				p, st := int32(b.phys(i)), &sts[gids[i]]
				v := cv.strs[p]
				if !st.seen || v < cv.strs[st.minP] {
					st.minP = p
				}
				if !st.seen || cv.strs[st.maxP] < v {
					st.maxP = p
				}
				st.seen = true
			}
		case TypeBool:
			for i := 0; i < n; i++ {
				p, st := int32(b.phys(i)), &sts[gids[i]]
				v := cv.bools[p]
				if !st.seen || (!v && cv.bools[st.minP]) {
					st.minP = p
				}
				if !st.seen || (!cv.bools[st.maxP] && v) {
					st.maxP = p
				}
				st.seen = true
			}
		}
		switch a.Fn {
		case AggSum, AggAvg:
			fs := make([]float64, nGroups)
			for gid := range fs {
				fs[gid] = sts[gid].sum
				if a.Fn == AggAvg && counts[gid] > 0 {
					fs[gid] /= float64(counts[gid])
				}
			}
			out.cols = append(out.cols, colvec{floats: fs})
		case AggMin, AggMax:
			if n == 0 {
				// The empty global group: no row to take the extreme
				// from, so it is the zero of the column's type.
				out.cols = append(out.cols, zeroColvec(typ, nGroups))
				continue
			}
			at := make([]int32, nGroups)
			for gid := range at {
				at[gid] = sts[gid].maxP
				if a.Fn == AggMin {
					at[gid] = sts[gid].minP
				}
			}
			out.cols = append(out.cols, gather(cv, typ, at))
		}
	}
	return out
}

// --- distinct / order by ---

// Distinct removes duplicate rows, preserving first-appearance order.
// The result is a new selection over the shared column vectors; nothing
// is materialized.
func (b *ColumnBlock) Distinct(sc *Scratch) *ColumnBlock {
	rowsScanned.Add(int64(b.Len()))
	idx := make([]int, len(b.Schema))
	for j := range idx {
		idx[j] = j
	}
	_, firstP := b.groupIDs(idx, sc.orNew(), nil)
	return b.withSel(firstP)
}

// OrderBy stably sorts the block by the named column. Only the
// selection vector is permuted; column vectors are shared.
func (b *ColumnBlock) OrderBy(col string, desc bool) (*ColumnBlock, error) {
	j, err := b.ColIndex(col)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	sel := make([]int32, n)
	for i := 0; i < n; i++ {
		sel[i] = int32(b.phys(i))
	}
	var less func(a, bb int32) bool
	cv := b.cols[j]
	switch b.Schema[j].Type {
	case TypeInt:
		less = func(a, bb int32) bool { return cv.ints[a] < cv.ints[bb] }
	case TypeFloat:
		less = func(a, bb int32) bool { return cv.floats[a] < cv.floats[bb] }
	case TypeString:
		less = func(a, bb int32) bool { return cv.strs[a] < cv.strs[bb] }
	case TypeBool:
		less = func(a, bb int32) bool { return !cv.bools[a] && cv.bools[bb] }
	}
	sort.SliceStable(sel, func(x, y int) bool {
		if desc {
			return less(sel[y], sel[x])
		}
		return less(sel[x], sel[y])
	})
	return b.withSel(sel), nil
}
