package engine

import "testing"

// StoreOf writes tbl to a colstore store of segRows rows per segment
// and opens it: the golden lattice's third source. internal/colstore
// imports this package, so only an external test file can build one;
// colstore_source_test.go sets StoreOf.
var StoreOf func(t testing.TB, tbl *Table, segRows int) Storage
