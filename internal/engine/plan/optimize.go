package plan

// The optimizer works on a "join region": the maximal prefix of a
// query made of scans, equi-joins, and pushable filters. The physical
// layer lowers that prefix into a RegionSpec, Choose picks a join
// order by estimated cardinality, and the executor runs the chosen
// order (each join hashes its observed smaller input and emits in left
// order either way). Everything downstream of the region (projections,
// renames, aggregates, sorts) executes as written.

// ScanSpec describes one base table input of a join region. Scans are
// indexed by written order: scan 0 is the query's source table, scan
// k is the right input of the k'th join.
type ScanSpec struct {
	Table string
	Alias string
	Rows  int64
	// Cols lists the physical columns the region needs from this scan
	// (projection pruning); empty means all.
	Cols []string
}

// JoinSpec is one written equi-join edge: join j matches LeftCol of
// scan Left (some scan with index ≤ j) against RightCol of scan j+1.
// The edges form a tree over the scans — each join introduces exactly
// one new scan.
type JoinSpec struct {
	Left     int
	LeftCol  string
	RightCol string
}

// FilterSpec is a single-scan filter eligible for pushdown. Pred's
// column names are bare (scan-local).
type FilterSpec struct {
	Scan int
	Pred Expr
}

// RegionSpec is a lowered join region: the scans, the written join
// edges, the pushable single-scan filters, and any residual filters
// that reference multiple scans (applied after all joins, as written).
type RegionSpec struct {
	Scans   []ScanSpec
	Joins   []JoinSpec
	Filters []FilterSpec
	// Post holds multi-scan filters in output (qualified) column names.
	Post []Expr
}

// JoinStep is one executed join of a chosen order: the accumulated
// intermediate (containing LeftScan) joined to scan RightScan on one
// written edge.
type JoinStep struct {
	LeftScan  int
	LeftCol   string
	RightScan int
	RightCol  string
	// Est is the estimated output cardinality of this step.
	Est float64
}

// Choice is the optimizer's decision for one region.
type Choice struct {
	// Order is the scan visit order; Order[0] is the start scan.
	Order []int
	Steps []JoinStep
	Cost  float64
	// Reordered reports whether Order differs from written order.
	Reordered bool
}

// ndvOf returns the NDV of a join column, falling back to the scan's
// row count (every row distinct) when no statistics are available.
func ndvOf(cat Catalog, scan int, col string) int64 {
	if cs, ok := cat.ColStats(scan, col); ok && cs.NDV > 0 {
		return cs.NDV
	}
	r := cat.ScanRows(scan)
	if r < 1 {
		return 1
	}
	return r
}

// filteredEst returns the estimated post-filter cardinality of every
// scan: rows × the product of its pushed filters' selectivities.
func filteredEst(cat Catalog, region *RegionSpec) []float64 {
	f := make([]float64, len(region.Scans))
	for i := range region.Scans {
		f[i] = float64(cat.ScanRows(i))
	}
	for _, fl := range region.Filters {
		f[fl.Scan] *= Selectivity(cat, fl.Scan, fl.Pred)
	}
	return f
}

// Choose picks a join order for the region by greedy cardinality
// estimation: for every possible start scan it grows the join tree one
// adjacent scan at a time, always taking the candidate that minimizes
// the estimated intermediate cardinality, then keeps the start whose
// complete order has the lowest total cost (sum of intermediate sizes
// plus hash-build sizes). Deterministic: ties resolve to the lower
// scan index, comparisons are strict.
func Choose(cat Catalog, region *RegionSpec) *Choice {
	n := len(region.Scans)
	m := len(region.Joins)
	f := filteredEst(cat, region)
	if n == 0 || m != n-1 {
		return nil
	}

	var best *Choice
	for start := 0; start < n; start++ {
		in := make([]bool, n)
		in[start] = true
		order := []int{start}
		steps := make([]JoinStep, 0, m)
		cur := f[start]
		cost := 0.0
		ok := true
		for len(order) < n {
			bestCand := -1
			var bestSetScan int
			var bestSetCol, bestCandCol string
			bestEst := 0.0
			for c := 0; c < n; c++ {
				if in[c] {
					continue
				}
				edge, setScan, setCol, candCol := -1, -1, "", ""
				for j, js := range region.Joins {
					l, r := js.Left, j+1
					if l == c && in[r] {
						edge, setScan, setCol, candCol = j, r, js.RightCol, js.LeftCol
						break
					}
					if r == c && in[l] {
						edge, setScan, setCol, candCol = j, l, js.LeftCol, js.RightCol
						break
					}
				}
				if edge < 0 {
					continue
				}
				est := JoinCard(cur, f[c], ndvOf(cat, setScan, setCol), ndvOf(cat, c, candCol))
				if bestCand < 0 || est < bestEst {
					bestCand, bestEst = c, est
					bestSetScan, bestSetCol, bestCandCol = setScan, setCol, candCol
				}
			}
			if bestCand < 0 {
				ok = false
				break
			}
			build := cur
			if f[bestCand] < build {
				build = f[bestCand]
			}
			cost += bestEst + build
			steps = append(steps, JoinStep{
				LeftScan:  bestSetScan,
				LeftCol:   bestSetCol,
				RightScan: bestCand,
				RightCol:  bestCandCol,
				Est:       bestEst,
			})
			in[bestCand] = true
			order = append(order, bestCand)
			cur = bestEst
		}
		if !ok {
			continue
		}
		if best == nil || cost < best.Cost {
			reordered := false
			for i, s := range order {
				if s != i {
					reordered = true
					break
				}
			}
			best = &Choice{
				Order:     order,
				Steps:     steps,
				Cost:      cost,
				Reordered: reordered,
			}
		}
	}
	return best
}

// WrittenOrder returns the Choice describing the region executed in
// written order — scan 0 first, then each join as written — with cost
// estimates filled in. The executor uses it when it skips reordering
// (single-join regions); EXPLAIN uses it to render the written plan.
func WrittenOrder(cat Catalog, region *RegionSpec) *Choice {
	n := len(region.Scans)
	m := len(region.Joins)
	if n == 0 || m != n-1 {
		return nil
	}
	f := filteredEst(cat, region)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	steps := make([]JoinStep, 0, m)
	cur := f[0]
	cost := 0.0
	for j, js := range region.Joins {
		r := j + 1
		est := JoinCard(cur, f[r], ndvOf(cat, js.Left, js.LeftCol), ndvOf(cat, r, js.RightCol))
		build := cur
		if f[r] < build {
			build = f[r]
		}
		cost += est + build
		steps = append(steps, JoinStep{
			LeftScan:  js.Left,
			LeftCol:   js.LeftCol,
			RightScan: r,
			RightCol:  js.RightCol,
			Est:       est,
		})
		cur = est
	}
	return &Choice{Order: order, Steps: steps, Cost: cost}
}

// BuildTree renders the region under a chosen order as a logical plan
// tree (for EXPLAIN). Pushed filters sit directly above their scan;
// residual multi-scan filters sit above the last join.
func BuildTree(region *RegionSpec, c *Choice) *Node {
	scanNode := func(i int) *Node {
		n := &Node{
			Kind:  KindScan,
			Table: region.Scans[i].Table,
			Alias: region.Scans[i].Alias,
			Rows:  region.Scans[i].Rows,
			Cols:  region.Scans[i].Cols,
		}
		var out *Node = n
		for _, fl := range region.Filters {
			if fl.Scan == i {
				out = &Node{Kind: KindFilter, Pred: fl.Pred, Input: out}
			}
		}
		return out
	}
	root := scanNode(c.Order[0])
	for _, st := range c.Steps {
		root = &Node{
			Kind:     KindJoin,
			Left:     root,
			Right:    scanNode(st.RightScan),
			LeftCol:  region.Scans[st.LeftScan].Alias + "." + st.LeftCol,
			RightCol: region.Scans[st.RightScan].Alias + "." + st.RightCol,
			EstRows:  st.Est,
		}
	}
	for _, p := range region.Post {
		root = &Node{Kind: KindFilter, Pred: p, Input: root}
	}
	return root
}
