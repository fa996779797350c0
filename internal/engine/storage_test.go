package engine

// Tests for the storage seam on the engine side: *Table as a Storage,
// partition concatenation, and the leading-filter pruning hint.

import (
	"context"
	"errors"
	"testing"

	"modeldata/internal/engine/plan"
	"modeldata/internal/rng"
)

func TestTableImplementsStorage(t *testing.T) {
	tbl := randomTable(rng.New(31), "t", 40)
	var st Storage = tbl
	if st.StorageName() != "t" || st.NumRows() != 40 {
		t.Fatalf("Storage views: name=%q rows=%d", st.StorageName(), st.NumRows())
	}
	it, err := st.ScanPartitions(context.Background(), nil, nil)
	if err != nil {
		t.Fatalf("ScanPartitions: %v", err)
	}
	b, err := it.Next()
	if err != nil || b == nil {
		t.Fatalf("Next: %v, %v", b, err)
	}
	if b.Len() != 40 {
		t.Fatalf("partition has %d rows", b.Len())
	}
	if nxt, err := it.Next(); nxt != nil || err != nil {
		t.Fatalf("second Next should end iteration: %v, %v", nxt, err)
	}
	stats := it.Stats()
	if stats.Partitions != 1 || stats.Scanned != 1 || stats.BlocksPruned != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	requireSameTable(t, "table-as-storage", tbl, b.ToTable())
}

func TestTableStorageProjection(t *testing.T) {
	tbl := randomTable(rng.New(37), "t", 20)
	it, err := tbl.ScanPartitions(context.Background(), []string{"x", "tag"}, nil)
	if err != nil {
		t.Fatalf("ScanPartitions: %v", err)
	}
	b, err := it.Next()
	if err != nil || b == nil {
		t.Fatalf("Next: %v, %v", b, err)
	}
	if len(b.Schema) != 2 || b.Schema[0].Name != "x" || b.Schema[1].Name != "tag" {
		t.Fatalf("projected schema = %v", b.Schema)
	}
}

func TestFromStorageOverTableMatchesFrom(t *testing.T) {
	tbl := randomTable(rng.New(41), "t", 120)
	want, err := From(tbl).WhereExpr(plan.Cmp{Op: ">", Col: "x", Val: plan.FloatLit(0)}).
		OrderBy("id", false).Run()
	if err != nil {
		t.Fatalf("From: %v", err)
	}
	got, err := FromStorage(tbl).WhereExpr(plan.Cmp{Op: ">", Col: "x", Val: plan.FloatLit(0)}).
		OrderBy("id", false).Run()
	if err != nil {
		t.Fatalf("FromStorage: %v", err)
	}
	requireSameTable(t, "storage over table", want, got)
}

func TestConcatBlocks(t *testing.T) {
	r := rng.New(43)
	full := randomTable(r, "c", 90)
	var parts []*ColumnBlock
	for lo := 0; lo < 90; lo += 30 {
		sub := &Table{Name: "c", Schema: full.Schema, Rows: full.Rows[lo : lo+30]}
		parts = append(parts, mustBlock(t, sub))
	}
	b, err := concatBlocks("c", full.Schema, parts)
	if err != nil {
		t.Fatalf("concatBlocks: %v", err)
	}
	requireSameTable(t, "concat", full, b.ToTable())

	// Zero partitions give an empty block with the schema intact.
	eb, err := concatBlocks("c", full.Schema, nil)
	if err != nil {
		t.Fatalf("concatBlocks(nil): %v", err)
	}
	if eb.Len() != 0 || !eb.Schema.Equal(full.Schema) {
		t.Fatalf("empty concat: len=%d schema=%v", eb.Len(), eb.Schema)
	}
}

func TestLeadingFilterExpr(t *testing.T) {
	tbl := randomTable(rng.New(47), "t", 10)

	if e := From(tbl).leadingFilterExpr(); e != nil {
		t.Fatalf("no ops should give nil hint, got %v", e)
	}

	q := From(tbl).
		WhereEq("tag", Str("a")).
		WhereExpr(plan.Cmp{Op: ">", Col: "x", Val: plan.FloatLit(0)}).
		OrderBy("id", false).
		WhereEq("flag", Bool(true)) // behind OrderBy: not a leading filter
	e := q.leadingFilterExpr()
	and, ok := e.(plan.And)
	if !ok {
		t.Fatalf("hint = %T, want plan.And of the two leading filters", e)
	}
	if cmp, ok := and.L.(plan.Cmp); !ok || cmp.Col != "tag" {
		t.Fatalf("left conjunct = %v", and.L)
	}
	if cmp, ok := and.R.(plan.Cmp); !ok || cmp.Col != "x" {
		t.Fatalf("right conjunct = %v", and.R)
	}
}

func TestFloatColumnErrorClasses(t *testing.T) {
	tbl := &Table{Name: "e", Schema: Schema{
		{Name: "s", Type: TypeString},
	}, Rows: []Row{{Str("x")}}}
	if _, err := tbl.FloatColumn("s"); !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("FloatColumn on string col: %v, want ErrNotNumeric", err)
	}
	if _, err := tbl.FloatColumn("missing"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("FloatColumn on missing col: %v, want ErrNoColumn", err)
	}
}

func TestDatabaseCloneSharesStorages(t *testing.T) {
	db := NewDatabase()
	tbl := randomTable(rng.New(77), "facts", 25)
	db.PutStorage(tbl)

	clone := db.Clone()
	got, ok := clone.Storage("facts")
	if !ok {
		t.Fatal("clone lost the registered storage")
	}
	if got != Storage(tbl) {
		t.Fatal("clone should share the read-only backend, not copy it")
	}

	// The registration maps are independent: adding to the clone must
	// not leak into the original.
	other := randomTable(rng.New(78), "extra", 5)
	clone.PutStorage(other)
	if _, ok := db.Storage("extra"); ok {
		t.Fatal("registering on the clone mutated the original database")
	}
}
