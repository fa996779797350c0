package engine

// The storage seam. Storage abstracts "something that can stream a
// relation as ColumnBlocks": the in-memory *Table is one
// implementation (one partition, no pruning) and the on-disk column
// store in internal/colstore is another (many segment partitions,
// zone-map pruning). Query.FromStorage and SQL FROM resolution consume
// the interface, so every operator above the scan — filters, joins,
// group-by, the spill paths — is shared between backends, which is
// what lets the golden suite pin every backend byte-identical
// (and is the swappable-backend split the Extensible Database
// Simulator paper argues for).

import (
	"context"
	"fmt"

	"modeldata/internal/engine/plan"
)

// ScanStats reports what one partitioned scan did: how many partitions
// (segments) the storage holds for the scan, how many it actually
// decoded, how many column blocks zone maps pruned without decode, and
// how many blocks (and stored bytes) the surviving partitions decoded —
// one block per projected column each.
type ScanStats struct {
	Partitions    int64
	Scanned       int64
	BlocksPruned  int64
	BlocksDecoded int64
	BytesRead     int64
}

// PartitionIter streams the partitions of one scan. Next returns
// (nil, nil) after the final partition. Stats is valid once Next has
// returned nil and reflects the whole scan.
//
// Release hands a block back. The caller may release the block Next
// returned last once nothing references it any more, including blocks
// derived from it (a selection, a projection, a rename share its
// vectors); the iterator may then decode a later partition into its
// vectors. Releasing is optional: a block never released is never
// overwritten. Releasing any other block is a no-op. Only vectors are
// reused: a string value stays valid, since a string column's values
// are substrings of a slab each block decodes afresh.
type PartitionIter interface {
	Next() (*ColumnBlock, error)
	Release(b *ColumnBlock)
	Stats() ScanStats
}

// Storage is a scannable relation backend. ScanPartitions streams the
// relation as one or more ColumnBlocks; cols (nil = all, in schema
// order) projects columns before decode, and pred is a pruning *hint*:
// the storage may use it to skip partitions that cannot contain a
// matching row, but must never use it to drop individual rows —
// callers re-apply every filter to the blocks they receive, so a
// storage that ignores pred entirely is still correct.
type Storage interface {
	// StorageName names the relation (the table name blocks carry).
	StorageName() string
	// StorageSchema returns the relation's schema.
	StorageSchema() Schema
	// NumRows returns the total row count across all partitions.
	NumRows() int64
	// ScanPartitions starts a scan. The iterator must be drained or
	// abandoned; it holds no locks between Next calls.
	ScanPartitions(ctx context.Context, cols []string, pred plan.Expr) (PartitionIter, error)
}

// ScanPlanner is an optional Storage refinement: it predicts, without
// decoding data, how many partitions a scan of cols (nil = all) with
// the given pruning hint would touch and how many column blocks it
// would prune — what the scan's ScanStats will report, for EXPLAIN —
// and how many rows the partitions it decodes hold, which a streamed
// group-by projects its hash estimate to. The on-disk store implements
// it from segment footers.
type ScanPlanner interface {
	PlanScan(cols []string, pred plan.Expr) (partitions, blocksPruned, rows int64)
}

// StorageName implements Storage for the in-memory table.
func (t *Table) StorageName() string { return t.Name }

// StorageSchema implements Storage.
func (t *Table) StorageSchema() Schema { return t.Schema.Clone() }

// NumRows implements Storage.
func (t *Table) NumRows() int64 { return int64(len(t.Rows)) }

// ScanPartitions implements Storage: the whole table is one partition,
// decoded strictly (a mixed column fails the scan). The pruning hint is
// ignored; filters re-apply above.
func (t *Table) ScanPartitions(ctx context.Context, cols []string, _ plan.Expr) (PartitionIter, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := decodeTable(t)
	if err != nil {
		return nil, err
	}
	if cols != nil {
		if b, err = b.Project(cols...); err != nil {
			return nil, err
		}
		b.Name = t.Name
	}
	return &tableIter{block: b}, nil
}

// tableIter yields one block, then (nil, nil).
type tableIter struct {
	block *ColumnBlock
	done  bool
}

func (it *tableIter) Next() (*ColumnBlock, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	return it.block, nil
}

// Release is a no-op: the one block is the table's decode, never
// reused.
func (it *tableIter) Release(*ColumnBlock) {}

func (it *tableIter) Stats() ScanStats {
	return ScanStats{Partitions: 1, Scanned: 1}
}

// concatBlocks concatenates partitions (all sharing schema) into one
// dense block named name. A single partition passes through without
// copying; zero partitions produce an empty block of the schema.
func concatBlocks(name string, schema Schema, parts []*ColumnBlock) (*ColumnBlock, error) {
	if len(parts) == 1 {
		b := parts[0].Dense()
		if b == parts[0] {
			nb := *b
			nb.Name = name
			return &nb, nil
		}
		b.Name = name
		return b, nil
	}
	total := 0
	dense := make([]*ColumnBlock, len(parts))
	for i, p := range parts {
		if !p.Schema.Equal(schema) {
			return nil, fmt.Errorf("%w: partition %d schema differs from scan schema", ErrSchema, i)
		}
		dense[i] = p.Dense()
		total += dense[i].Len()
	}
	out := &ColumnBlock{
		Name:   name,
		Schema: schema.Clone(),
		nrows:  total,
		cols:   make([]colvec, len(schema)),
	}
	for j, c := range schema {
		switch c.Type {
		case TypeInt:
			v := make([]int64, 0, total)
			for _, d := range dense {
				v = append(v, d.cols[j].ints[:d.nrows]...)
			}
			out.cols[j].ints = v
		case TypeFloat:
			v := make([]float64, 0, total)
			for _, d := range dense {
				v = append(v, d.cols[j].floats[:d.nrows]...)
			}
			out.cols[j].floats = v
		case TypeString:
			v := make([]string, 0, total)
			for _, d := range dense {
				v = append(v, d.cols[j].strs[:d.nrows]...)
			}
			out.cols[j].strs = v
		case TypeBool:
			v := make([]bool, 0, total)
			for _, d := range dense {
				v = append(v, d.cols[j].bools[:d.nrows]...)
			}
			out.cols[j].bools = v
		}
	}
	return out, nil
}
