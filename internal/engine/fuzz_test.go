package engine

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// fuzzDB is the small fixed database FuzzPrepare binds against: the
// serve_sql star at toy size, sales standing in for the stochastic
// table.
func fuzzDB() (*Database, *Table) {
	db := NewDatabase()
	sales := MustNewTable("sales", Schema{{Name: "sid", Type: TypeInt}, {Name: "amount", Type: TypeFloat}})
	stores := MustNewTable("stores", Schema{{Name: "sid", Type: TypeInt}, {Name: "region", Type: TypeInt}, {Name: "base", Type: TypeFloat}})
	regions := MustNewTable("regions", Schema{{Name: "rid", Type: TypeInt}, {Name: "zone", Type: TypeString}})
	for i := 0; i < 6; i++ {
		sales.MustInsert(Int(int64(i)), Float(50+float64(i)))
		stores.MustInsert(Int(int64(i)), Int(int64(i%2)), Float(45+float64(i)))
	}
	regions.MustInsert(Int(0), Str("north"))
	regions.MustInsert(Int(1), Str("south"))
	db.Put(sales)
	db.Put(stores)
	db.Put(regions)
	return db, sales
}

// FuzzPrepare: any bytes prepare to a statement or an error, never a
// panic; a statement that prepares binds, lowers, explains and runs
// against a fixed database without panicking. It runs as the planner
// plans it and, with its FROM table a storage, as written: both give
// the same bits or both fail. And it runs with the fact table's float
// column deferred — when it runs both ways, the two agree.
func FuzzPrepare(f *testing.F) {
	for _, sql := range []string{
		"SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.sid = stores.sid JOIN regions ON stores.region = regions.rid WHERE regions.zone = 'north' AND sales.amount > 52",
		"SELECT SUM(sales.amount) FROM sales JOIN stores ON stores.sid = sales.sid",
		"SELECT AVG(amount) FROM sales WHERE amount > 50",
		"SELECT COUNT(*) FROM sales JOIN stores ON sales.amount = stores.base",
		"SELECT SUM(sales.amount) FROM sales JOIN sales ON sales.sid = sales.sid",
		"SELECT MAX(sales.amount) FROM regions JOIN stores ON regions.rid = stores.region JOIN sales ON sales.sid = stores.sid WHERE sales.amount > 51 OR stores.region = 1",
		"SELECT MIN(sales.amount) FROM sales JOIN stores ON sales.sid = stores.sid WHERE NOT sales.amount > 52 AND sales.amount BETWEEN 1 AND 1e2",
		"SELECT sales.sid, sales.amount FROM sales JOIN stores ON sales.sid = stores.sid",
		"SELECT regions.zone, COUNT(*) AS n FROM stores JOIN regions ON stores.region = regions.rid GROUP BY regions.zone ORDER BY n DESC LIMIT 1;",
		"SELECT DISTINCT region FROM stores WHERE base <> -4.5e1 OR sid != +3",
		"select * from regions where zone = 'it''s'",
		"EXPLAIN SELECT * FROM sales",
		"INSERT INTO sales VALUES (1, 2.0)",
		"SELECT SUM(",
		"",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		p, err := Prepare(sql)
		if err != nil {
			return
		}
		db, sales := fuzzDB()
		if q, err := p.Query(db); err == nil {
			q.lowerRegion()
			_, _ = q.Explain()
		}
		// A JOIN's right side must be a table, so a statement that joins
		// its FROM table has no storage twin.
		joinsFrom := slices.ContainsFunc(p.st.joins, func(j sqlJoin) bool { return strings.EqualFold(j.table, p.st.from) })
		if _, err := db.Get(p.st.from); err == nil && !joinsFrom {
			planned, err := p.Exec(db)
			written, werr := p.Exec(writtenDB(db, p.st.from))
			if (err == nil) != (werr == nil) {
				t.Fatalf("%q: planned %v, as written %v", sql, err, werr)
			}
			if err == nil {
				if err := DiffTables(written, planned); err != nil {
					t.Fatalf("%q: planned vs as written: %v", sql, err)
				}
			}
		}
		whole, wholeErr := p.Scalar(db)
		d, err := p.Defer(db, map[*Table][]int{sales: {1}})
		if d == nil || err != nil {
			return
		}
		first, err := d.Run()
		if (err == nil) != (wholeErr == nil) || err == nil && math.Float64bits(first) != math.Float64bits(whole) {
			t.Fatalf("%q: deferred run gave %v, %v; the statement itself %v, %v", sql, first, err, whole, wholeErr)
		}
		if err != nil {
			return
		}
		again, err := d.Scalar([][]float64{{50, 51, 52, 53, 54, 55}})
		if err != nil || math.Float64bits(again) != math.Float64bits(whole) {
			t.Fatalf("%q: with its own column deferred gave %v, %v; the statement itself %v", sql, again, err, whole)
		}
	})
}
