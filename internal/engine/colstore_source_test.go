package engine_test

import (
	"testing"

	"modeldata/internal/colstore"
	"modeldata/internal/engine"
)

func init() {
	engine.StoreOf = func(t testing.TB, tbl *engine.Table, segRows int) engine.Storage {
		t.Helper()
		dir, opt := t.TempDir(), colstore.Options{SegmentRows: segRows}
		if err := colstore.WriteTable(dir, tbl, opt); err != nil {
			t.Fatalf("WriteTable(%s): %v", tbl.Name, err)
		}
		st, err := colstore.Open(dir, opt)
		if err != nil {
			t.Fatalf("Open(%s): %v", tbl.Name, err)
		}
		return st
	}
}
