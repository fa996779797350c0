package engine

// Planned execution of a lowered join region. The contract is strict:
// planned output is byte-identical to the written order — same rows,
// same order, same Value payloads — for every query, so the planner
// can never change results, only speed.
//
// How that is achieved: every join emits its left rows in order, each
// followed by its right matches in right order, and a filter keeps
// order. The written path's output is therefore its surviving row
// combinations sorted by scan 0's row, then scan 1's, and so on, each
// in its scan's order; no filter's position and no build side shows in
// it. The planned path:
//
//  1. applies every pushed filter to its scan as a plain selection;
//  2. when keeping written order, runs the joins as written and needs
//     no sort at all;
//  3. when reordering joins, tags each scan with a hidden row-id
//     column, joins in the cost-chosen order, and restores written
//     order with one sort over the row ids in scan order.

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"modeldata/internal/engine/plan"
)

// planRegion plans and executes q's join region over ch's decoded
// source, leaving the region's output in ch. It returns the number of
// leading ops consumed; 0 means the query has no plannable region and
// the caller must replay everything through the direct chain. An error
// is a scan that breaks the executable-table rule or a filter column
// that does not resolve, which the written order refuses too (lowering
// has already resolved every join column).
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
// ridScan, when not negative, names a scan whose hidden row ids are
// returned too: rid[p] is the row of that scan behind physical row p of
// the block, which is what lets a caller replace that scan's columns
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

	// Pushed filters: drop[s][i] reports that a filter on scan s rejects
	// its row i; nil when no filter names the scan.
	drop := make([][]bool, len(blocks))
	pushedBelow := 0
	for _, f := range reg.filters {
		b := blocks[f.scan]
		pred, err := compileExprBlock(f.pred, b)
		if err != nil {
			return nil, nil, err
		}
		n := b.Len()
		rowsScanned.Add(int64(n))
		if drop[f.scan] == nil {
			drop[f.scan] = make([]bool, n)
		}
		d := drop[f.scan]
		for i := range d {
			d[i] = d[i] || !pred(i)
		}
		if f.scan > 0 || f.pos > 0 {
			// Scan 0 filters at position 0 run where written; everything
			// else crossed at least one join to reach its scan.
			pushedBelow++
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
		scanBlks[s] = buildScanBlock(b, drop[s], ret[s], reordered || s == ridScan, s)
		mp := make(map[string]int, len(ret[s]))
		for i, rc := range ret[s] {
			mp[strings.ToLower(rc.bare)] = i
		}
		keepIdx[s] = mp
	}

	var steps []plan.JoinStep
	startScan := 0
	if reordered {
		startScan, steps = choice.Order[0], choice.Steps
	} else {
		for p, jn := range reg.joins {
			steps = append(steps, plan.JoinStep{LeftScan: jn.leftScan, RightScan: p + 1, LeftCol: jn.leftCol, RightCol: jn.rightCol})
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
		right := scanBlks[st.RightScan]
		li := colPos[st.LeftScan][keepIdx[st.LeftScan][strings.ToLower(st.LeftCol)]]
		ri := keepIdx[st.RightScan][strings.ToLower(st.RightCol)]
		lidx, ridx := joinPairs(acc, right, li, ri, ch.sc, ch.budget, ch.spillDir)
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
		pos := make([]int, len(ret[st.RightScan]))
		for i := range pos {
			pos[i] = off + i
		}
		colPos[st.RightScan] = pos
		accRid[st.RightScan] = off + len(pos)
		acc = out
	}

	// Restore written order: sort by the row ids in scan order, then put
	// the columns back in written order (dropping the row-id columns).
	if reordered {
		n := acc.Len()
		sel := make([]int32, n)
		for i := 0; i < n; i++ {
			sel[i] = int32(acc.phys(i))
		}
		ridVecs := make([][]int64, len(blocks))
		for s := range ridVecs {
			ridVecs[s] = acc.cols[accRid[s]].ints
		}
		slices.SortFunc(sel, func(a, b int32) int {
			for _, rv := range ridVecs {
				if rv[a] != rv[b] {
					return cmp.Compare(rv[a], rv[b])
				}
			}
			return 0
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
		spec.Filters = append(spec.Filters, plan.FilterSpec{Scan: f.scan, Pred: f.pred})
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
// renamed to their region-exit names, the pushed-filter selection (the
// rows drop does not mark), and (when reordering) an identity row-id
// column.
func buildScanBlock(b *ColumnBlock, drop []bool, keep []retCol, withRid bool, scan int) *ColumnBlock {
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
	if slices.Contains(drop, true) {
		var sel []int32
		for i, d := range drop {
			if !d {
				sel = append(sel, int32(i))
			}
		}
		if sel == nil {
			sel = emptySel
		}
		nb.sel = sel
	}
	return nb
}
