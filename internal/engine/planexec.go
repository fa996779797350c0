package engine

// Planned execution of a lowered join region. The contract is strict:
// planned output is byte-identical to the written order — same rows,
// same order, same Value payloads — for every query, so the planner
// can never change results, only speed.
//
// How that is achieved: the written path's output order
// is fully determined by its hash-build choices. Joins emit in probe
// order with build-insertion order within a key, so if the written
// path builds left at join p the new scan's rows become the slowest-
// varying sort key, otherwise the fastest. Executing joins in ANY
// order therefore produces the written order after sorting by per-scan
// row ids in that signature sequence. The planned path:
//
//  1. evaluates every pushed filter per scan, recording for each row
//     the earliest written position that rejects it (failPos);
//  2. reconstructs, by counting alone (canonLens), the written path's
//     intermediate sizes, hence its exact build-side choices;
//  3. when keeping written order, forces those build sides and needs
//     no sort at all — pushdown is a pure restriction and emission
//     order is preserved;
//  4. when reordering joins, tags each scan with a hidden row-id
//     column, joins in the cost-chosen order with whichever side is
//     observed smaller, and restores written order with one stable
//     sort over the row-id signature.

import (
	"sort"
	"strconv"
	"strings"

	"modeldata/internal/engine/plan"
)

// failNever marks a row rejected by no pushed filter.
const failNever = int32(1) << 30

// satCap bounds saturating counting arithmetic; any real intermediate
// is far below it, and a saturated count only means "build right".
const satCap = int64(1) << 62

// planRegion plans and executes q's join region over ch's decoded
// source, leaving the region's output in ch. It returns the number of
// leading ops consumed; 0 means the query has no plannable region and
// the caller must replay everything through the direct chain. An error
// is a scan that breaks the executable-table rule or a filter or join
// column that does not resolve, which the written order refuses too.
func (q *Query) planRegion(ch *chain) (int, error) {
	reg := q.lowerRegion()
	if reg == nil {
		return 0, nil
	}
	acc, _, err := q.joinRegion(ch, reg, -1)
	if err != nil {
		return 0, err
	}
	if acc, err = postFilters(reg.post, acc); err != nil {
		return 0, err
	}
	ch.b = acc
	return reg.end, nil
}

// joinRegion executes reg's scans, pushed filters and joins over ch's
// decoded source and returns the finished join: the region's columns in
// written order, its rows in written order, reg.post not yet applied.
// ridScan,
// when not negative, names a scan whose hidden row ids are returned
// too: rid[p] is the row of that scan behind physical row p of the
// block, which is what lets a caller replace that scan's columns
// afterwards (see Deferred).
func (q *Query) joinRegion(ch *chain, reg *region, ridScan int) (*ColumnBlock, []int64, error) {
	m := len(reg.joins)

	// Decode every scan, deduplicating self-joins.
	blocks := make([]*ColumnBlock, len(reg.scans))
	decoded := map[*Table]*ColumnBlock{q.src: ch.b}
	for s, t := range reg.scans {
		b, ok := decoded[t]
		if !ok {
			var err error
			if b, err = decodeTable(t); err != nil {
				return nil, nil, err
			}
			decoded[t] = b
		}
		blocks[s] = b
	}

	// Pushed filters: failPos[s][i] is the earliest written position
	// (join count at write time) whose filter rejects row i of scan s.
	failPos := make([][]int32, len(blocks))
	for s, b := range blocks {
		fp := make([]int32, b.Len())
		for i := range fp {
			fp[i] = failNever
		}
		failPos[s] = fp
	}
	pushedBelow := 0
	for _, f := range reg.filters {
		b := blocks[f.scan]
		pred, err := compileExprBlock(f.pred, b)
		if err != nil {
			return nil, nil, err
		}
		n := b.Len()
		rowsScanned.Add(int64(n))
		fp := failPos[f.scan]
		pos := int32(f.pos)
		for i := 0; i < n; i++ {
			if pos < fp[i] && !pred(i) {
				fp[i] = pos
			}
		}
		if f.scan > 0 || f.pos > 0 {
			// Scan 0 filters at position 0 run where written; everything
			// else crossed at least one join to reach its scan.
			pushedBelow++
		}
	}

	// Written-path build sides, reconstructed by counting.
	lj := make([]int, m)
	rj := make([]int, m)
	for p, jn := range reg.joins {
		a, err := blocks[jn.leftScan].ColIndex(jn.leftCol)
		if err != nil {
			return nil, nil, err
		}
		bcol, err := blocks[p+1].ColIndex(jn.rightCol)
		if err != nil {
			return nil, nil, err
		}
		lj[p], rj[p] = a, bcol
	}
	lens := canonLens(blocks, failPos, reg.joins, lj, rj)
	bl := make([]bool, m)
	sig := []int{0}
	for p := 1; p <= m; p++ {
		left := lens[p-1] < int64(blocks[p].Len())
		bl[p-1] = left
		if left {
			sig = append([]int{p}, sig...)
		} else {
			sig = append(sig, p)
		}
	}

	// Join order: cost-based for 2+ joins (cached across executions of
	// a Prepared statement), written order otherwise.
	var choice *plan.Choice
	if m >= 2 {
		choice = q.chooseOrder(reg, blocks)
	}
	reordered := choice != nil && choice.Reordered

	// Per-scan inputs: pushed filters applied, columns pruned to what
	// the rest of the query can observe, plus a hidden row-id column
	// per scan when reordering (for the final restoring sort).
	ret := q.retainedCols(reg)
	scanBlks := make([]*ColumnBlock, len(blocks))
	keepIdx := make([]map[string]int, len(blocks))
	for s, b := range blocks {
		scanBlks[s] = buildScanBlock(b, failPos[s], ret[s], reordered || s == ridScan, s)
		mp := make(map[string]int, len(ret[s]))
		for i, rc := range ret[s] {
			mp[strings.ToLower(rc.bare)] = i
		}
		keepIdx[s] = mp
	}

	type pstep struct {
		leftScan, rightScan int
		leftCol, rightCol   string
		buildLeft           bool // meaningful only when forced
		forced              bool
	}
	steps := make([]pstep, m)
	startScan := 0
	if reordered {
		startScan = choice.Order[0]
		for i, st := range choice.Steps {
			steps[i] = pstep{
				leftScan: st.LeftScan, rightScan: st.RightScan,
				leftCol: st.LeftCol, rightCol: st.RightCol,
			}
		}
	} else {
		for p := 0; p < m; p++ {
			jn := reg.joins[p]
			steps[p] = pstep{
				leftScan: jn.leftScan, rightScan: p + 1,
				leftCol: jn.leftCol, rightCol: jn.rightCol,
				buildLeft: bl[p], forced: true,
			}
		}
	}

	// The join loop. colPos tracks where each scan's kept columns (and
	// row-id column) currently sit in the accumulated block.
	colPos := make([][]int, len(blocks))
	accRid := make([]int, len(blocks))
	acc := scanBlks[startScan]
	{
		pos := make([]int, len(ret[startScan]))
		for i := range pos {
			pos[i] = i
		}
		colPos[startScan] = pos
		accRid[startScan] = len(pos)
	}
	for _, st := range steps {
		right := scanBlks[st.rightScan]
		li := colPos[st.leftScan][keepIdx[st.leftScan][strings.ToLower(st.leftCol)]]
		ri := keepIdx[st.rightScan][strings.ToLower(st.rightCol)]
		buildLeft := st.buildLeft
		if !st.forced {
			// Reordered joins build on the observed smaller side (a sort
			// restores written order later, so the choice is free).
			buildLeft = acc.Len() < right.Len()
		}
		lidx, ridx := joinPairs(acc, right, li, ri, buildLeft, ch.sc, ch.budget, ch.spillDir)
		out := &ColumnBlock{
			Schema: append(acc.Schema.Clone(), right.Schema.Clone()...),
			nrows:  len(lidx),
			cols:   make([]colvec, 0, len(acc.Schema)+len(right.Schema)),
		}
		for j := range acc.Schema {
			out.cols = append(out.cols, gather(acc.cols[j], acc.Schema[j].Type, lidx))
		}
		for j := range right.Schema {
			out.cols = append(out.cols, gather(right.cols[j], right.Schema[j].Type, ridx))
		}
		ch.sc.putIdx(0, lidx)
		ch.sc.putIdx(1, ridx)
		off := len(acc.Schema)
		pos := make([]int, len(ret[st.rightScan]))
		for i := range pos {
			pos[i] = off + i
		}
		colPos[st.rightScan] = pos
		accRid[st.rightScan] = off + len(pos)
		acc = out
	}

	// Restore written order: sort by the row-id signature, then put the
	// columns back in written order (dropping the row-id columns).
	if reordered {
		n := acc.Len()
		sel := make([]int32, n)
		for i := 0; i < n; i++ {
			sel[i] = int32(acc.phys(i))
		}
		ridVecs := make([][]int64, 0, len(sig))
		for _, s := range sig {
			ridVecs = append(ridVecs, acc.cols[accRid[s]].ints)
		}
		sort.SliceStable(sel, func(x, y int) bool {
			a, b := sel[x], sel[y]
			for _, rv := range ridVecs {
				if rv[a] != rv[b] {
					return rv[a] < rv[b]
				}
			}
			return false
		})
		acc = acc.withSel(sel)
		planCanonSorts.Add(1)
	}
	outSchema := make(Schema, 0, len(acc.Schema))
	outCols := make([]colvec, 0, len(acc.Schema))
	for s := range scanBlks {
		for _, p := range colPos[s] {
			outSchema = append(outSchema, acc.Schema[p])
			outCols = append(outCols, acc.cols[p])
		}
	}
	var rid []int64
	if ridScan >= 0 {
		rid = acc.cols[accRid[ridScan]].ints
	}
	planPlanned.Add(1)
	planPushdown.Add(int64(pushedBelow))
	if reordered {
		planReordered.Add(1)
	}
	return &ColumnBlock{Name: reg.name, Schema: outSchema, nrows: acc.nrows, sel: acc.sel, cols: outCols}, rid, nil
}

// postFilters applies a region's residual conjuncts exactly where they
// were written: after all joins, on the written-order block.
func postFilters(post []plan.Expr, acc *ColumnBlock) (*ColumnBlock, error) {
	for _, p := range post {
		pred, err := compileExprBlock(p, acc)
		if err != nil {
			return nil, err
		}
		acc = acc.whereFunc(pred)
	}
	return acc, nil
}

// chooseOrder runs (or recalls) the cost-based join-order choice.
// Prepared statements cache the Choice keyed by the scans' identity
// and sizes; only the order is cached — the order-restoring machinery
// recomputes everything data-dependent per execution, so a cached
// order can never change results.
func (q *Query) chooseOrder(reg *region, blocks []*ColumnBlock) *plan.Choice {
	if q.cache == nil {
		return plan.Choose(newBlockCatalog(reg.scans, blocks), regionSpecLite(reg))
	}
	key := scanSignature(reg)
	if c := q.cache.lookupChoice(key); c != nil {
		planCacheHits.Add(1)
		return c
	}
	planCacheMisses.Add(1)
	c := plan.Choose(newBlockCatalog(reg.scans, blocks), regionSpecLite(reg))
	if c != nil {
		q.cache.storeChoice(key, c)
	}
	return c
}

// regionSpecLite lowers a region without projection-pruning detail —
// all the optimizer needs.
func regionSpecLite(reg *region) *plan.RegionSpec {
	spec := &plan.RegionSpec{}
	for s, t := range reg.scans {
		spec.Scans = append(spec.Scans, plan.ScanSpec{
			Table: t.Name, Alias: reg.aliases[s], Rows: int64(t.Len()),
		})
	}
	for _, jn := range reg.joins {
		spec.Joins = append(spec.Joins, plan.JoinSpec{
			Left: jn.leftScan, LeftCol: jn.leftCol, RightCol: jn.rightCol,
		})
	}
	for _, f := range reg.filters {
		spec.Filters = append(spec.Filters, plan.FilterSpec{Scan: f.scan, Pos: f.pos, Pred: f.pred})
	}
	return spec
}

// scanSignature identifies a region's inputs for the choice cache.
func scanSignature(reg *region) string {
	var b strings.Builder
	for i, t := range reg.scans {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(reg.aliases[i])
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(t.Len()))
	}
	return b.String()
}

// ridColName names a scan's hidden row-id column; the NUL prefix keeps
// it out of any user-referencable namespace.
func ridColName(scan int) string {
	return "\x00rid" + strconv.Itoa(scan)
}

// buildScanBlock assembles one scan's planned input: kept columns
// renamed to their region-exit names, the pushed-filter selection, and
// (when reordering) an identity row-id column.
func buildScanBlock(b *ColumnBlock, fp []int32, keep []retCol, withRid bool, scan int) *ColumnBlock {
	n := b.Len()
	schema := make(Schema, 0, len(keep)+1)
	cols := make([]colvec, 0, len(keep)+1)
	for _, rc := range keep {
		schema = append(schema, Column{Name: rc.name, Type: b.Schema[rc.col].Type})
		cols = append(cols, b.cols[rc.col])
	}
	if withRid {
		rid := make([]int64, n)
		for i := range rid {
			rid[i] = int64(i)
		}
		schema = append(schema, Column{Name: ridColName(scan), Type: TypeInt})
		cols = append(cols, colvec{ints: rid})
	}
	nb := &ColumnBlock{Name: b.Name, Schema: schema, nrows: n, cols: cols}
	all := true
	var sel []int32
	for i := 0; i < n; i++ {
		if fp[i] == failNever {
			sel = append(sel, int32(i))
		} else {
			all = false
		}
	}
	if !all {
		if sel == nil {
			sel = emptySel
		}
		nb.sel = sel
	}
	return nb
}

// canonLens reconstructs the written path's intermediate sizes:
// lens[0] is scan 0 after its position-0 filters, lens[p] (p ≥ 1) the
// row count of the written intermediate after join p with every filter
// written at positions ≤ p applied. The written path builds join p's
// hash on the left exactly when lens[p-1] < len(scan p), and the
// planned path must reproduce those choices to reproduce emission
// order — so they are recovered here by counting alone, never by
// materializing the written intermediates.
//
// Each lens[p] is a Yannakakis-style bottom-up count over the join
// tree spanning scans 0..p: cnt[t] maps scan t's parent-edge key to
// the number of partial join tuples rooted at t, and scan 0's weighted
// sum is the intermediate's size. Arithmetic saturates at satCap; a
// saturated count compares "huge", which only flips a build side
// toward the raw scan — still exactly what the written path would do,
// since the real count is at least as large.
//
// An edge is counted on uint64 key codes, computed once per column,
// where equiJoinIdx would join on them — both columns of one key kind,
// not strings, keyCodes succeeding on both — and on byte keys otherwise
// (strings, an int64 beyond 2^53, mismatched kinds, which never match).
// Codes are equal exactly when byte keys are, so the counts agree.
func canonLens(blocks []*ColumnBlock, failPos [][]int32, joins []regionJoin, lj, rj []int) []int64 {
	m := len(joins)
	lens := make([]int64, m)
	var c0 int64
	for _, f := range failPos[0] {
		if f > 0 {
			c0++
		}
	}
	lens[0] = c0
	// lc[c] / rc[c]: key codes of join c's left and right columns, nil
	// for an edge counted on byte keys. The last join is never counted.
	lc, rc := make([][]uint64, m), make([][]uint64, m)
	for c := 0; c < m-1; c++ {
		lb, rb := blocks[joins[c].leftScan], blocks[c+1]
		lt, rt := lb.Schema[lj[c]].Type, rb.Schema[rj[c]].Type
		if lt == TypeString || colKeyKind(lt) != colKeyKind(rt) {
			continue
		}
		l, r := make([]uint64, lb.Len()), make([]uint64, rb.Len())
		if lb.keyCodes(lj[c], l) && rb.keyCodes(rj[c], r) {
			lc[c], rc[c] = l, r
		}
	}
	type keyCount struct {
		codes map[uint64]int64
		keys  map[string]int64
	}
	var cnt []keyCount
	var kb []byte
	// weight is the number of partial join tuples below row i of scan t
	// among scans ≤ p: the product over the joins c < p that hang scan
	// c+1 off t of that child's count at the row's key.
	weight := func(t, p, i int) int64 {
		w := int64(1)
		for c := t; c < p && w != 0; c++ {
			if joins[c].leftScan != t {
				continue
			}
			if lc[c] != nil {
				w = satMul(w, cnt[c+1].codes[lc[c][i]])
			} else {
				kb = blocks[t].appendKeyAt(kb[:0], i, lj[c])
				w = satMul(w, cnt[c+1].keys[string(kb)])
			}
		}
		return w
	}
	for p := 1; p < m; p++ {
		cnt = make([]keyCount, p+1)
		for t := p; t >= 1; t-- {
			b, fp, codes := blocks[t], failPos[t], rc[t-1]
			var kc keyCount
			if codes != nil {
				kc.codes = make(map[uint64]int64, b.Len())
			} else {
				kc.keys = make(map[string]int64, b.Len())
			}
			for i, n := 0, b.Len(); i < n; i++ {
				if int(fp[i]) <= p {
					continue
				}
				w := weight(t, p, i)
				if w == 0 {
					continue
				}
				if codes != nil {
					kc.codes[codes[i]] = satAdd(kc.codes[codes[i]], w)
				} else {
					kb = b.appendKeyAt(kb[:0], i, rj[t-1])
					kc.keys[string(kb)] = satAdd(kc.keys[string(kb)], w)
				}
			}
			cnt[t] = kc
		}
		var total int64
		for i, fp := range failPos[0] {
			if int(fp) > p {
				total = satAdd(total, weight(0, p, i))
			}
		}
		lens[p] = total
	}
	return lens
}

// satAdd and satMul saturate at satCap; inputs are non-negative.
func satAdd(a, b int64) int64 {
	if a > satCap-b {
		return satCap
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satCap/b {
		return satCap
	}
	return a * b
}
