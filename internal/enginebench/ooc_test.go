package enginebench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"modeldata/internal/colstore"
	"modeldata/internal/engine"
)

// TestBuildOOCStoreIsPinned holds the fixture to what bench/batch.go
// assumes of it: the same bytes on every build, the requested row
// count with sequential ids (what zone-map pruning of a BETWEEN on id
// relies on), and gids drawn from [0, 1024) — bench's oocGroups.
func TestBuildOOCStoreIsPinned(t *testing.T) {
	const rows, segRows = 5000, 1024
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, d := range dirs {
		if err := BuildOOCStore(d, rows, segRows); err != nil {
			t.Fatalf("BuildOOCStore: %v", err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dirs[0], "seg-*.mdcs"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (rows + segRows - 1) / segRows; len(segs) != want {
		t.Fatalf("%d segment files, want %d", len(segs), want)
	}
	for _, p := range segs {
		a, errA := os.ReadFile(p)
		b, errB := os.ReadFile(filepath.Join(dirs[1], filepath.Base(p)))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s differs between two builds (read errors %v, %v)", filepath.Base(p), errA, errB)
		}
	}

	st, err := colstore.Open(dirs[0], colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := engine.FromStorage(st).Run()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != rows {
		t.Fatalf("%d rows, want %d", tbl.Len(), rows)
	}
	gids := map[int64]bool{}
	for i, r := range tbl.Rows {
		if id := r[0].AsInt(); id != int64(i) {
			t.Fatalf("row %d has id %d, want sequential ids", i, id)
		}
		g := r[1].AsInt()
		if g < 0 || g >= oocGidDomain {
			t.Fatalf("row %d has gid %d outside [0, %d)", i, g, oocGidDomain)
		}
		gids[g] = true
	}
	// Seed 0x00c and the draw order fix which gids 5000 rows reach;
	// bench's oracle counts this data, so a change here moves it.
	if oocGidDomain != 1024 || len(gids) != 1018 {
		t.Fatalf("gid domain %d with %d distinct gids in %d rows, want 1024 and 1018", oocGidDomain, len(gids), rows)
	}
}
