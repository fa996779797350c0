package engine

// Lowering: extracting the plannable "join region" from a recorded
// query. The region is the maximal prefix of scans, equi-joins, and
// filters whose conjuncts each touch a single scan; the optimizer
// (internal/engine/plan) reorders it, and everything after it replays
// as written. Lowering is pure analysis — it never executes anything.

import (
	"fmt"
	"strings"

	"modeldata/internal/engine/plan"
)

// colOrigin tracks where one column of the query's evolving schema
// came from: the scan that produced it, its bare (scan-local) name,
// and its current qualified name.
type colOrigin struct {
	scan int
	bare string
	name string
}

// regionJoin is one written join edge in scan-index form: it matches
// leftCol of scan leftScan against rightCol of the scan it introduces
// (join j introduces scan j+1).
type regionJoin struct {
	leftScan int
	leftCol  string
	rightCol string
}

// regionFilter is a single-scan filter conjunct. pos is the number of
// joins recorded when it was written; pred uses bare column names.
type regionFilter struct {
	scan int
	pos  int
	pred plan.Expr
}

// region is a lowered join region.
type region struct {
	scans   []*Table
	aliases []string // display aliases, deduplicated for self-joins
	joins   []regionJoin
	filters []regionFilter
	post    []plan.Expr // multi-scan conjuncts, exit-qualified names
	end     int         // number of leading ops the region consumed
	cols    []colOrigin // region output columns in written order
	name    string      // region output table name
}

// lowerRegion extracts q's join region, or nil when the query has no
// plannable prefix (no joins, or an unplannable shape). Filters whose
// conjuncts each touch one scan are recorded for pushdown; a filter
// with a multi-scan conjunct ends the region early if more joins
// follow it, and otherwise lands in post (it runs after all joins
// either way, exactly where it was written).
func (q *Query) lowerRegion() *region {
	if q.src == nil {
		return nil
	}
	prefixEnd, joinsTotal := 0, 0
	for prefixEnd < len(q.ops) {
		switch q.ops[prefixEnd].kind {
		case opJoin:
			joinsTotal++
		case opFilter:
		default:
			goto scanned
		}
		prefixEnd++
	}
scanned:
	if joinsTotal == 0 {
		return nil
	}
	r := &region{scans: []*Table{q.src}, aliases: []string{q.src.Name}, name: q.src.Name}
	cols := make([]colOrigin, 0, len(q.src.Schema))
	for _, c := range q.src.Schema {
		cols = append(cols, colOrigin{scan: 0, bare: c.Name, name: c.Name})
	}
	joinsLeft := joinsTotal
	i := 0
walk:
	for ; i < prefixEnd; i++ {
		op := q.ops[i]
		switch op.kind {
		case opFilter:
			conjs := plan.Conjuncts(op.expr)
			scansOf := make([]int, len(conjs))
			multi := false
			for k, cj := range conjs {
				s, ok := conjunctScan(cols, cj)
				if !ok {
					return nil
				}
				scansOf[k] = s
				if s < 0 {
					multi = true
				}
			}
			if multi && joinsLeft > 0 {
				// A cross-scan predicate with joins still to come: the
				// op must replay in place, so the region ends here.
				break walk
			}
			for k, cj := range conjs {
				if scansOf[k] >= 0 {
					r.filters = append(r.filters, regionFilter{
						scan: scansOf[k], pos: len(r.joins), pred: bareExpr(cols, cj),
					})
				} else {
					// No joins follow, so written names are exit names.
					r.post = append(r.post, cj)
				}
			}
		case opJoin:
			joinsLeft--
			lo, ok := resolveCol(cols, op.joinL)
			if !ok {
				return nil
			}
			rj, err := op.joinT.Schema.ColIndex(op.joinR)
			if err != nil {
				return nil
			}
			k := len(r.scans)
			if !op.joinFlat {
				for idx := range cols {
					cols[idx].name = r.name + "." + cols[idx].name
				}
			}
			for _, c := range op.joinT.Schema {
				cols = append(cols, colOrigin{scan: k, bare: c.Name, name: op.joinT.Name + "." + c.Name})
			}
			r.name = r.name + "_" + op.joinT.Name
			r.scans = append(r.scans, op.joinT)
			r.aliases = append(r.aliases, dedupAlias(r.aliases, op.joinT.Name))
			r.joins = append(r.joins, regionJoin{
				leftScan: lo.scan, leftCol: lo.bare, rightCol: op.joinT.Schema[rj].Name,
			})
		}
	}
	if len(r.joins) == 0 {
		return nil
	}
	r.end = i
	r.cols = cols
	return r
}

// resolveCol finds the first column whose current name matches,
// case-insensitively — the same first-match rule Schema.ColIndex uses.
func resolveCol(cols []colOrigin, name string) (colOrigin, bool) {
	for _, c := range cols {
		if strings.EqualFold(c.name, name) {
			return c, true
		}
	}
	return colOrigin{}, false
}

// conjunctScan returns the single scan a conjunct's columns resolve
// to, -1 if they span scans, and ok=false on a resolution failure.
func conjunctScan(cols []colOrigin, e plan.Expr) (int, bool) {
	refs := plan.Columns(e)
	scan := -2
	for _, rc := range refs {
		o, ok := resolveCol(cols, rc)
		if !ok {
			return 0, false
		}
		if scan == -2 {
			scan = o.scan
		} else if scan != o.scan {
			return -1, true
		}
	}
	if scan == -2 {
		return -1, true
	}
	return scan, true
}

// bareExpr rewrites e's qualified column names to their bare
// (scan-local) forms.
func bareExpr(cols []colOrigin, e plan.Expr) plan.Expr {
	return plan.RenameCols(e, func(name string) string {
		if o, ok := resolveCol(cols, name); ok {
			return o.bare
		}
		return name
	})
}

func dedupAlias(used []string, name string) string {
	alias := name
	for n := 2; ; n++ {
		clash := false
		for _, u := range used {
			if u == alias {
				clash = true
				break
			}
		}
		if !clash {
			return alias
		}
		alias = fmt.Sprintf("%s_%d", name, n)
	}
}

// --- projection pruning ---

// retCol is one physical column the planned region must materialize.
type retCol struct {
	col  int    // index in the scan's schema
	bare string // scan-local name
	name string // region-exit (qualified) name
}

// retainedCols computes, per scan, the columns planned execution must
// carry: those the query tail can reference (neededBefore) plus the
// region's own join keys and post-filter columns. Results preserve
// each scan's schema order.
func (q *Query) retainedCols(reg *region) [][]retCol {
	need := neededBefore(q.ops[reg.end:], nil)
	local := make([]map[string]bool, len(reg.scans))
	mark := func(scan int, bare string) {
		if local[scan] == nil {
			local[scan] = make(map[string]bool)
		}
		local[scan][strings.ToLower(bare)] = true
	}
	for j, jn := range reg.joins {
		mark(jn.leftScan, jn.leftCol)
		mark(j+1, jn.rightCol)
	}
	for _, p := range reg.post {
		for _, c := range plan.Columns(p) {
			if o, ok := resolveCol(reg.cols, c); ok {
				mark(o.scan, o.bare)
			}
		}
	}
	out := make([][]retCol, len(reg.scans))
	counts := make([]int, len(reg.scans))
	for _, c := range reg.cols {
		idx := counts[c.scan]
		counts[c.scan]++
		if need == nil || need[strings.ToLower(c.name)] || local[c.scan][strings.ToLower(c.bare)] {
			out[c.scan] = append(out[c.scan], retCol{col: idx, bare: c.bare, name: c.name})
		}
	}
	return out
}

// neededBefore returns the set of column names (lowercase) of the state
// entering tail that tail and its consumer require, or nil meaning all
// of them; need is what the consumer requires of tail's output, in the
// same form. It walks the tail backward: projections and aggregations
// narrow the set; whole-row operations (Distinct, joins) widen it to
// everything, since they observe the full schema. The planner prunes
// region-exit columns with it, a storage scan its stored ones.
func neededBefore(tail []*qop, need map[string]bool) map[string]bool {
	for i := len(tail) - 1; i >= 0; i-- {
		op := tail[i]
		switch op.kind {
		case opLimit:
			// row count only; the set is unchanged
		case opFilter:
			if need != nil {
				for _, c := range plan.Columns(op.expr) {
					need[strings.ToLower(c)] = true
				}
			}
		case opOrderBy:
			if need != nil {
				need[strings.ToLower(op.col)] = true
			}
		case opSelect:
			s := make(map[string]bool, len(op.cols))
			for _, c := range op.cols {
				s[strings.ToLower(c)] = true
			}
			need = s
		case opRename:
			if need != nil {
				delete(need, strings.ToLower(op.newName))
				need[strings.ToLower(op.oldName)] = true
			}
		case opGroupBy:
			s := make(map[string]bool, len(op.cols)+len(op.aggs))
			for _, k := range op.cols {
				s[strings.ToLower(k)] = true
			}
			for _, a := range op.aggs {
				if a.Col != "" {
					s[strings.ToLower(a.Col)] = true
				}
			}
			need = s
		default: // opDistinct, opJoin
			need = nil
		}
	}
	return need
}

// --- EXPLAIN ---

// Explain returns the logical plan Run would execute, without running
// it. A query over a table shows its join region in optimized form
// (filters pushed to their scans, each scan listing the columns it
// reads, joins in cost-chosen order with cardinality estimates); a
// storage-backed or unplannable query shows the written shape. Render
// with Tree.Text or serialize with Tree.JSON.
func (q *Query) Explain() (*plan.Tree, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.store != nil {
		// Storage-backed scan: one scan node annotated with the
		// storage's partition/pruning prediction for the scan Run makes
		// (from segment footers, no data decoded), then the recorded
		// operations as written.
		root := &plan.Node{
			Kind: plan.KindScan, Table: q.store.StorageName(),
			Alias: q.store.StorageName(), Rows: q.store.NumRows(),
		}
		if sp, ok := q.store.(ScanPlanner); ok {
			req := q.scanRequest(true)
			root.Partitions, root.BlocksPruned, _ = sp.PlanScan(req.cols, req.hint)
		}
		for _, op := range q.ops {
			root = opNode(op, root)
		}
		return &plan.Tree{Root: root}, nil
	}
	if q.src == nil {
		return nil, fmt.Errorf("engine: explain of empty query")
	}
	start := 0
	var root *plan.Node
	if reg := q.lowerRegion(); reg != nil {
		spec, cat := q.regionSpec(reg)
		var choice *plan.Choice
		if len(reg.joins) >= 2 {
			choice = plan.Choose(cat, spec)
		}
		if choice == nil {
			choice = plan.WrittenOrder(cat, spec)
		}
		root = plan.BuildTree(spec, choice)
		start = reg.end
	} else {
		root = &plan.Node{Kind: plan.KindScan, Table: q.src.Name, Alias: q.src.Name, Rows: int64(q.src.Len())}
	}
	for _, op := range q.ops[start:] {
		root = opNode(op, root)
	}
	return &plan.Tree{Root: root}, nil
}

// regionSpec lowers a region to the plan package's spec plus a
// statistics catalog over the scans. Decoding here bypasses decodeTable
// — an undecodable scan just has no statistics — because nothing is
// being executed, so no query is refused.
func (q *Query) regionSpec(reg *region) (*plan.RegionSpec, plan.Catalog) {
	// A scan reads what the region carries past it and what its pushed
	// filters test, listed in schema order.
	ret := q.retainedCols(reg)
	read := make([]map[string]bool, len(reg.scans))
	for s := range reg.scans {
		read[s] = make(map[string]bool, len(ret[s]))
		for _, rc := range ret[s] {
			read[s][strings.ToLower(rc.bare)] = true
		}
	}
	for _, f := range reg.filters {
		for _, c := range plan.Columns(f.pred) {
			read[f.scan][strings.ToLower(c)] = true
		}
	}
	spec := &plan.RegionSpec{}
	for s, t := range reg.scans {
		var cols []string
		for _, c := range t.Schema {
			if read[s][strings.ToLower(c.Name)] {
				cols = append(cols, c.Name)
			}
		}
		spec.Scans = append(spec.Scans, plan.ScanSpec{
			Table: t.Name, Alias: reg.aliases[s], Rows: int64(t.Len()), Cols: cols,
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
	spec.Post = append(spec.Post, reg.post...)
	blocks := make([]*ColumnBlock, len(reg.scans))
	decoded := make(map[*Table]*ColumnBlock, len(reg.scans))
	for s, t := range reg.scans {
		if b, ok := decoded[t]; ok {
			blocks[s] = b
			continue
		}
		if b, err := FromTable(t); err == nil {
			blocks[s] = b
			decoded[t] = b
		}
	}
	return spec, newBlockCatalog(reg.scans, blocks)
}

// opNode renders one recorded operation as a plan node over input.
func opNode(op *qop, input *plan.Node) *plan.Node {
	switch op.kind {
	case opFilter:
		return &plan.Node{Kind: plan.KindFilter, Pred: op.expr, Input: input}
	case opSelect:
		return &plan.Node{Kind: plan.KindProject, Cols: op.cols, Input: input}
	case opRename:
		return &plan.Node{Kind: plan.KindOpaque, Op: "rename " + op.oldName + " -> " + op.newName, Input: input}
	case opJoin:
		return &plan.Node{
			Kind: plan.KindJoin,
			Left: input,
			Right: &plan.Node{
				Kind: plan.KindScan, Table: op.joinT.Name, Alias: op.joinT.Name, Rows: int64(op.joinT.Len()),
			},
			LeftCol: op.joinL, RightCol: op.joinR,
		}
	case opGroupBy:
		aggs := make([]plan.AggSpec, 0, len(op.aggs))
		for _, a := range op.aggs {
			aggs = append(aggs, plan.AggSpec{Fn: a.Fn.String(), Col: a.Col, As: a.As})
		}
		return &plan.Node{Kind: plan.KindAggregate, Keys: op.cols, Aggs: aggs, Input: input}
	case opOrderBy:
		return &plan.Node{Kind: plan.KindSort, Col: op.col, Desc: op.desc, Input: input}
	case opDistinct:
		return &plan.Node{Kind: plan.KindDistinct, Input: input}
	case opLimit:
		return &plan.Node{Kind: plan.KindLimit, N: op.n, Input: input}
	}
	return input
}
