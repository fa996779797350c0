package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Common engine errors.
var (
	ErrNoColumn   = errors.New("engine: no such column")
	ErrNoTable    = errors.New("engine: no such table")
	ErrTypeClash  = errors.New("engine: value type does not match column type")
	ErrArity      = errors.New("engine: row arity does not match schema")
	ErrDupeColumn = errors.New("engine: duplicate column name")
	ErrSchema     = errors.New("engine: incompatible schemas")
)

// ErrNotNumeric reports an access that required a numeric column but
// found another value type. It wraps ErrTypeClash, so existing
// errors.Is(err, ErrTypeClash) checks keep matching, while callers that
// care about the narrower reason class can distinguish it with
// errors.Is(err, ErrNotNumeric).
var ErrNotNumeric = fmt.Errorf("%w: column is not numeric", ErrTypeClash)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema []Column

// ColIndex returns the index of the named column, or ErrNoColumn.
func (s Schema) ColIndex(name string) (int, error) {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNoColumn, name)
}

// Validate checks that column names are unique (case-insensitively).
func (s Schema) Validate() error {
	seen := make(map[string]bool, len(s))
	for _, c := range s {
		k := strings.ToLower(c.Name)
		if seen[k] {
			return fmt.Errorf("%w: %q", ErrDupeColumn, c.Name)
		}
		seen[k] = true
	}
	return nil
}

// Equal reports whether two schemas have identical column names (case-
// insensitive) and types in order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if !strings.EqualFold(s[i].Name, o[i].Name) || s[i].Type != o[i].Type {
			return false
		}
	}
	return true
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Row is one tuple.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an in-memory relation: a schema plus rows.
type Table struct {
	Name   string
	Schema Schema
	Rows   []Row
}

// NewTable creates an empty table with the given name and schema. It
// returns an error if the schema has duplicate column names.
func NewTable(name string, schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &Table{Name: name, Schema: schema.Clone()}, nil
}

// MustNewTable is NewTable that panics on error, for static schemas in
// tests and examples.
func MustNewTable(name string, schema Schema) *Table {
	t, err := NewTable(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Conform checks r against the schema — arity, then each value's type —
// widening int values into float columns in place. It is the one rule
// for what a row of this schema may hold; table names the relation in
// the error, which wraps ErrArity or ErrTypeClash.
func (s Schema) Conform(table string, r Row) error {
	if len(r) != len(s) {
		return fmt.Errorf("%w: table %q got %d values, want %d", ErrArity, table, len(r), len(s))
	}
	for i, v := range r {
		want := s[i].Type
		if v.Type() == want {
			continue
		}
		if want == TypeFloat && v.Type() == TypeInt {
			r[i] = Float(v.AsFloat())
			continue
		}
		return fmt.Errorf("%w: table %q column %q: got %s, want %s",
			ErrTypeClash, table, s[i].Name, v.Type(), want)
	}
	return nil
}

// Insert appends a row after validating it against the schema.
func (t *Table) Insert(r Row) error {
	if err := t.Schema.Conform(t.Name, r); err != nil {
		return err
	}
	t.Rows = append(t.Rows, r)
	return nil
}

// MustInsert inserts and panics on error, for tests and examples.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(Row(vals)); err != nil {
		panic(err)
	}
}

// InsertAll inserts every row, stopping at the first error.
func (t *Table) InsertAll(rows []Row) error {
	for _, r := range rows {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the row count.
func (t *Table) Len() int { return len(t.Rows) }

// ColIndex returns the index of the named column.
func (t *Table) ColIndex(name string) (int, error) { return t.Schema.ColIndex(name) }

// FloatColumn extracts a numeric column as float64s.
func (t *Table) FloatColumn(name string) ([]float64, error) {
	idx, err := t.ColIndex(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		if !r[idx].IsNumeric() {
			return nil, fmt.Errorf("%w: column %q row %d is %s", ErrNotNumeric, name, i, r[idx].Type())
		}
		out[i] = r[idx].AsFloat()
	}
	return out, nil
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	rows := make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = r.Clone()
	}
	return &Table{Name: t.Name, Schema: t.Schema.Clone(), Rows: rows}
}

// DiffTables is the engine's one definition of "the same answer": it
// returns nil when got has want's name, schema (names compared
// exactly), rows and every value down to its bits, and otherwise an
// error naming the first difference. Floats compare by bit pattern, so
// -0 and +0 differ, except that every NaN is one class: a NaN the
// operators copy (a key, a MIN) keeps its payload, but one arithmetic
// produces (a SUM) has no payload guarantee, and the engine keys every
// NaN alike. nil and empty Rows are the same relation.
func DiffTables(want, got *Table) error {
	if got.Name != want.Name {
		return fmt.Errorf("name %q, want %q", got.Name, want.Name)
	}
	if !slices.Equal(got.Schema, want.Schema) {
		return fmt.Errorf("schema %v, want %v", got.Schema, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if len(g) != len(w) {
			return fmt.Errorf("row %d: arity %d, want %d", i, len(g), len(w))
		}
		for j := range w {
			a, b := w[j], g[j]
			if a != b && !(a.typ == TypeFloat && b.typ == TypeFloat && math.IsNaN(a.f()) && math.IsNaN(b.f())) {
				return fmt.Errorf("row %d col %d: %v (key %q), want %v (key %q)", i, j, b, b.Key(), a, a.Key())
			}
		}
	}
	return nil
}

// String renders the table as an aligned text grid (truncated for large
// tables), convenient in examples and error messages.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d rows)\n", t.Name, len(t.Rows))
	for i, c := range t.Schema {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Type)
	}
	b.WriteByte('\n')
	const maxRows = 20
	for i, r := range t.Rows {
		if i == maxRows {
			fmt.Fprintf(&b, "... (%d more)\n", len(t.Rows)-maxRows)
			break
		}
		for j, v := range r {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Database is a named collection of tables, plus optionally registered
// Storage backends (on-disk column stores and the like) that SQL FROM
// clauses resolve against when no in-memory table claims the name.
type Database struct {
	tables map[string]*Table
	stores map[string]Storage
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Put registers (or replaces) a table under its own name.
func (db *Database) Put(t *Table) {
	db.tables[strings.ToLower(t.Name)] = t
}

// Get returns the named table or ErrNoTable.
func (db *Database) Get(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Drop removes the named table; it is a no-op if absent.
func (db *Database) Drop(name string) {
	delete(db.tables, strings.ToLower(name))
}

// PutStorage registers (or replaces) a storage backend under its own
// name. SQL SELECTs resolve FROM names against in-memory tables first
// and storages second, so a table shadows a storage of the same name.
// Storage-backed relations are read-only: INSERT and JOIN right sides
// still require in-memory tables.
func (db *Database) PutStorage(st Storage) {
	if db.stores == nil {
		db.stores = make(map[string]Storage)
	}
	db.stores[strings.ToLower(st.StorageName())] = st
}

// Storage returns the storage backend registered under name.
func (db *Database) Storage(name string) (Storage, bool) {
	st, ok := db.stores[strings.ToLower(name)]
	return st, ok
}

// Clone returns an independent database over the same rows; this is how
// Monte Carlo layers materialize database instances. Rows are immutable
// once inserted, so each table of the clone is a fresh header (name,
// schema copy, row list clipped to its length) over the original's
// rows, and cloning costs O(tables), not O(rows). A clone may Insert,
// Put and Drop freely — the clip makes its first Insert reallocate the
// row list, so neither side sees the other's changes — but, like any
// holder of a table, must not write a cell of an existing row;
// Table.Clone is the deep copy for that. Storage backends are read-only
// and safe for concurrent scans, so the clone shares them too, under
// its own registration map.
func (db *Database) Clone() *Database {
	out := NewDatabase()
	for k, t := range db.tables {
		n := len(t.Rows)
		out.tables[k] = &Table{Name: t.Name, Schema: t.Schema.Clone(), Rows: t.Rows[:n:n]}
	}
	for _, st := range db.stores {
		out.PutStorage(st)
	}
	return out
}
