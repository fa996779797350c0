package engine

// Why-provenance threading through query execution. When a query runs
// WithProvenance, the execution state carries one hidden TypeInt column
// (provColName, NUL-prefixed like the planner's row-id columns so no
// user name can collide with it) holding, per row, an interned
// prov.Set handle: the set of source-table rows that produced the row.
// The invariant between operators is simple — the provenance column is
// always the LAST column of the state. It rides through the ordinary
// operators in chain.apply: filters, rename, order-by and limit only
// select or permute rows and carry it untouched; the steps here are
// the places annotations are created (source and join-right leaves),
// combined (join ⊗, group-by/distinct ⊕) and finally moved into the
// result's lineage.
//
// The semiring is sets-of-input-rows under union for both ⊗ and ⊕
// (internal/prov), so annotations are insensitive to the planner's
// join reordering: planexec.go computes region-exit annotations from
// the same hidden row-id columns its order-restoring sort uses, and
// union's associativity/commutativity guarantees the result matches
// written-order execution.

import (
	"slices"

	"modeldata/internal/prov"
)

// provColName names the hidden provenance column. The NUL prefix keeps
// it out of any user-referencable namespace, exactly like ridColName.
const provColName = "\x00prov"

var provCol = Column{Name: provColName, Type: TypeInt}

// WithProvenance makes the query record why-provenance: every result
// row is annotated with the set of source-table rows that produced it,
// retrievable from the result via Table.Lineage. Joins union the two
// sides' annotations; group-by and distinct union across the rows
// merged into each output row. Provenance never changes the visible
// result — rows, order, and values are identical to a run without it.
//
// Storage-backed queries disable zone-map pruning under provenance so
// row annotations index the full stored relation; the extra decode
// cost is the price of stable leaf identities.
func (q *Query) WithProvenance() *Query {
	nq := *q
	nq.provOn = true
	return &nq
}

// withProvName appends the hidden column's name to a projection list
// under provenance.
func (c *chain) withProvName(cols []string) []string {
	if c.arena == nil {
		return cols
	}
	return append(cols[:len(cols):len(cols)], provColName)
}

// withProvCol appends the hidden column to a schema under provenance.
func (c *chain) withProvCol(s Schema) Schema {
	if c.arena == nil {
		return s
	}
	return append(s, provCol)
}

// annotate appends the provenance column to a source block: row i gets
// the singleton set {name:i}. Row indexes are logical, so the leaf of a
// source row is its index in the source relation.
func (c *chain) annotate(b *ColumnBlock) *ColumnBlock {
	n := b.Len()
	ids := make([]int64, b.nrows)
	for i := 0; i < n; i++ {
		ids[b.phys(i)] = int64(c.arena.Leaf(b.Name, i))
	}
	provAnnotated.Add(int64(n))
	nb := *b
	nb.Schema = append(b.Schema.Clone(), provCol)
	nb.cols = append(b.cols[:len(b.cols):len(b.cols)], colvec{ints: ids})
	return &nb
}

// joinAnnotations ⊗-combines the two provenance columns of a join of
// annotated blocks into one last column: the left side's sits at lp
// (just before the right side's columns), the right side's last. Join
// output is dense, so the vectors combine position by position.
func (c *chain) joinAnnotations(jb *ColumnBlock, lp int) *ColumnBlock {
	rp := len(jb.cols) - 1
	lints, rints := jb.cols[lp].ints, jb.cols[rp].ints
	merged := make([]int64, jb.nrows)
	for i := range merged {
		merged[i] = int64(c.arena.Join(prov.Set(lints[i]), prov.Set(rints[i])))
	}
	nb := *jb
	nb.cols = append(slices.Delete(slices.Clone(jb.cols[:rp]), lp, lp+1), colvec{ints: merged})
	return &nb
}

// unionByGroup ⊕-merges the state's annotations per group, in logical
// row order: gids assigns each logical row of c.b its group.
func (c *chain) unionByGroup(gids []int32, nGroups int) []int64 {
	b := c.b
	pvec := b.cols[len(b.cols)-1].ints
	sets := make([]int64, nGroups) // prov.Empty is 0
	for i, g := range gids {
		sets[g] = int64(c.arena.Union(prov.Set(sets[g]), prov.Set(pvec[b.phys(i)])))
	}
	return sets
}

// result materializes the final state as rows, once. Under provenance
// the hidden column moves into the table's lineage so callers see
// exactly the schema they asked for.
func (c *chain) result() *Table {
	t := c.userTable()
	if c.arena != nil {
		b := c.b
		pvec := b.cols[len(b.cols)-1].ints
		sets := make([]prov.Set, b.Len())
		for i := range sets {
			sets[i] = prov.Set(pvec[b.phys(i)])
		}
		t.lineage = &tableLineage{arena: c.arena, sets: sets}
	}
	return t
}
