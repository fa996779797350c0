package engine

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"modeldata/internal/engine/plan"
	"modeldata/internal/rng"
)

// sqlFixture builds a small database via SQL itself.
func sqlFixture(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	stmts := []string{
		`CREATE TABLE person (pid INT, name VARCHAR(32), age INT, state VARCHAR(1), income FLOAT)`,
		`INSERT INTO person VALUES (1, 'ann', 3, 'S', 0.0)`,
		`INSERT INTO person VALUES (2, 'bob', 34, 'I', 52000.0), (3, 'cal', 4, 'I', 0.0)`,
		`INSERT INTO person VALUES (4, 'dee', 61, 'R', 31000.0)`,
		`INSERT INTO person VALUES (5, 'eve', 29, 'S', 78000.0)`,
		`CREATE TABLE orders (pid INT, amount FLOAT)`,
		`INSERT INTO orders VALUES (2, 10.5), (2, 20.0), (5, 5.25), (99, 1.0)`,
	}
	for _, s := range stmts {
		if _, err := db.Query(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

func TestSQLCreateInsertSelect(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query(`SELECT * FROM person`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 || len(res.Schema) != 5 {
		t.Fatalf("SELECT * shape: %d×%d", res.Len(), len(res.Schema))
	}
}

func TestSQLProjectionAndAlias(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query(`SELECT pid, name AS who FROM person ORDER BY pid DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	if _, err := res.ColIndex("who"); err != nil {
		t.Fatal("alias missing")
	}
	if res.Rows[0][0].AsInt() != 5 {
		t.Fatalf("ORDER BY DESC broken: %v", res.Rows[0])
	}
}

func TestSQLWherePreschoolers(t *testing.T) {
	// Algorithm 1's subpopulation query, nearly verbatim.
	db := sqlFixture(t)
	res, err := db.Query(`SELECT pid FROM person WHERE age >= 0 AND age <= 4`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("preschoolers = %d", res.Len())
	}
	// BETWEEN spelling.
	res2, err := db.Query(`SELECT pid FROM person WHERE age BETWEEN 0 AND 4`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 2 {
		t.Fatalf("BETWEEN preschoolers = %d", res2.Len())
	}
}

func TestSQLWhereOperators(t *testing.T) {
	db := sqlFixture(t)
	cases := map[string]int{
		`SELECT pid FROM person WHERE state = 'I'`:                           2,
		`SELECT pid FROM person WHERE state <> 'I'`:                          3,
		`SELECT pid FROM person WHERE state != 'I'`:                          3,
		`SELECT pid FROM person WHERE age > 30`:                              2,
		`SELECT pid FROM person WHERE age >= 29`:                             3,
		`SELECT pid FROM person WHERE age < 4`:                               1,
		`SELECT pid FROM person WHERE NOT state = 'S'`:                       3,
		`SELECT pid FROM person WHERE state = 'S' OR state = 'R'`:            3,
		`SELECT pid FROM person WHERE (age > 30 AND state = 'I') OR pid = 1`: 2,
		`SELECT pid FROM person WHERE income > 50000.0 AND age < 35`:         2,
	}
	for q, want := range cases {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Len() != want {
			t.Errorf("%s: rows = %d, want %d", q, res.Len(), want)
		}
	}
}

func TestSQLAggregates(t *testing.T) {
	db := sqlFixture(t)
	n, err := db.QueryScalar(`SELECT COUNT(*) FROM person WHERE state = 'I'`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count = %g", n)
	}
	total, err := db.QueryScalar(`SELECT SUM(income) AS total FROM person`)
	if err != nil {
		t.Fatal(err)
	}
	if total != 161000 {
		t.Fatalf("sum = %g", total)
	}
	avg, err := db.QueryScalar(`SELECT AVG(age) FROM person`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-(3+34+4+61+29)/5.0) > 1e-12 {
		t.Fatalf("avg = %g", avg)
	}
}

func TestSQLGroupBy(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query(`SELECT state, COUNT(*) AS n, MAX(age) AS oldest FROM person GROUP BY state ORDER BY state`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("groups = %d", res.Len())
	}
	// Ordered by state: I, R, S.
	if res.Rows[0][0].AsString() != "I" || res.Rows[0][1].AsInt() != 2 || res.Rows[0][2].AsInt() != 34 {
		t.Fatalf("I group = %v", res.Rows[0])
	}
	// Bare column not in GROUP BY is rejected.
	if _, err := db.Query(`SELECT name, COUNT(*) FROM person GROUP BY state`); !errors.Is(err, ErrSQL) {
		t.Fatalf("got %v", err)
	}
}

func TestSQLJoin(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query(`SELECT person.name, orders.amount FROM person JOIN orders ON pid = pid WHERE orders.amount > 6.0 ORDER BY orders.amount`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("join rows = %d", res.Len())
	}
	if res.Rows[0][0].AsString() != "bob" || res.Rows[0][1].AsFloat() != 10.5 {
		t.Fatalf("row 0 = %v", res.Rows[0])
	}
	// Qualified join columns also work.
	res2, err := db.Query(`SELECT COUNT(*) AS n FROM person JOIN orders ON person.pid = orders.pid`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows[0][0].AsInt() != 3 {
		t.Fatalf("join count = %v", res2.Rows[0])
	}
}

// TestSQLJoinOperandOrder: ON names the two join columns in either
// order — the joined table's first or second — and both spellings are
// the same statement.
func TestSQLJoinOperandOrder(t *testing.T) {
	db := sqlFixture(t)
	for _, s := range []string{
		`CREATE TABLE states (code VARCHAR(1), label VARCHAR(16))`,
		`INSERT INTO states VALUES ('S', 'susceptible'), ('I', 'infected'), ('R', 'recovered')`,
	} {
		if _, err := db.Query(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	for _, tc := range []struct{ name, left, right string }{
		{"two tables",
			`SELECT person.name, orders.amount FROM person JOIN orders ON person.pid = orders.pid ORDER BY orders.amount`,
			`SELECT person.name, orders.amount FROM person JOIN orders ON orders.pid = person.pid ORDER BY orders.amount`},
		{"joined table bare",
			`SELECT COUNT(*) AS n FROM person JOIN orders ON person.pid = pid`,
			`SELECT COUNT(*) AS n FROM person JOIN orders ON orders.pid = pid`},
		{"three-table chain",
			`SELECT states.label, SUM(orders.amount) AS total FROM orders JOIN person ON orders.pid = person.pid ` +
				`JOIN states ON person.state = states.code WHERE orders.amount > 5.5 GROUP BY states.label`,
			`SELECT states.label, SUM(orders.amount) AS total FROM orders JOIN person ON person.pid = orders.pid ` +
				`JOIN states ON states.code = person.state WHERE orders.amount > 5.5 GROUP BY states.label`},
	} {
		want, err := db.Query(tc.left)
		if err != nil {
			t.Fatalf("%s: %s: %v", tc.name, tc.left, err)
		}
		got, err := db.Query(tc.right)
		if err != nil {
			t.Fatalf("%s: %s: %v", tc.name, tc.right, err)
		}
		if want.Len() == 0 {
			t.Errorf("%s: %s is empty", tc.name, tc.left)
		}
		requireSameTable(t, tc.name+": the two spellings", want, got)
	}
}

func TestSQLInsertNegativeAndEscapes(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Query(`CREATE TABLE t (x FLOAT, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`INSERT INTO t VALUES (-2.5, 'o''brien')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsFloat() != -2.5 || res.Rows[0][1].AsString() != "o'brien" {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestSQLScientificAndBoolLiterals(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Query(`CREATE TABLE t (x FLOAT, b BOOLEAN)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`INSERT INTO t VALUES (1.5e3, TRUE), (2.0, FALSE)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT x FROM t WHERE b = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].AsFloat() != 1500 {
		t.Fatalf("res = %v", res.Rows)
	}
}

func TestSQLErrors(t *testing.T) {
	db := sqlFixture(t)
	bad := []string{
		``,
		`SELEC pid FROM person`,
		`SELECT pid FROM`,
		`SELECT pid FROM nope`,
		`SELECT nope FROM person`,
		`SELECT pid FROM person WHERE`,
		`SELECT pid FROM person WHERE age ~ 4`,
		`SELECT pid FROM person WHERE age = `,
		`SELECT pid FROM person LIMIT x`,
		`SELECT SUM(*) FROM person`,
		`SELECT * , pid FROM person`,
		`SELECT pid FROM person extra garbage`,
		`CREATE TABLE t (x NOPETYPE)`,
		`INSERT INTO nope VALUES (1)`,
		`INSERT INTO person VALUES ('wrong', 'arity')`,
		`DROP TABLE person`,
		`SELECT pid FROM person WHERE name = 'unterminated`,
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
}

func TestSQLQueryScalarErrors(t *testing.T) {
	db := sqlFixture(t)
	if _, err := db.QueryScalar(`SELECT pid FROM person`); !errors.Is(err, ErrSQL) {
		t.Fatalf("multi-row scalar: %v", err)
	}
	if _, err := db.QueryScalar(`SELECT name FROM person WHERE pid = 1`); !errors.Is(err, ErrSQL) {
		t.Fatalf("non-numeric scalar: %v", err)
	}
}

func TestSQLVarcharLengthSuffix(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Query(`CREATE TABLE t (s VARCHAR(255), n INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema[0].Type != TypeString || tbl.Schema[1].Type != TypeInt {
		t.Fatalf("schema = %v", tbl.Schema)
	}
}

func TestSQLCaseInsensitiveKeywords(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query(`select PID from PERSON where AGE > 30 order by pid`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
}

// TestSQLAgreesWithFluentProperty cross-checks the SQL front end
// against the fluent relational API on randomized data.
func TestSQLAgreesWithFluentProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		db := NewDatabase()
		tbl := MustNewTable("t", Schema{
			{Name: "k", Type: TypeInt},
			{Name: "v", Type: TypeFloat},
		})
		n := 5 + r.Intn(40)
		for i := 0; i < n; i++ {
			tbl.MustInsert(Int(int64(r.Intn(5))), Float(r.Normal(0, 10)))
		}
		db.Put(tbl)
		cut := r.Normal(0, 5)

		// SQL path.
		sqlRes, err := db.Query(fmt.Sprintf(
			`SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t WHERE v > %g GROUP BY k ORDER BY k`, cut))
		if err != nil {
			return false
		}
		// Fluent path.
		fluRes, err := From(tbl).
			WhereExpr(plan.Cmp{Op: ">", Col: "v", Val: plan.FloatLit(cut)}).
			GroupBy([]string{"k"},
				Aggregate{Fn: AggCount, As: "n"},
				Aggregate{Fn: AggSum, Col: "v", As: "s"}).
			OrderBy("k", false).
			Run()
		if err != nil {
			return false
		}
		if sqlRes.Len() != fluRes.Len() {
			return false
		}
		for i := range sqlRes.Rows {
			for j := range sqlRes.Rows[i] {
				if !sqlRes.Rows[i][j].Equal(fluRes.Rows[i][j]) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSQLDistinct(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query(`SELECT DISTINCT state FROM person ORDER BY state`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("distinct states = %d, want 3", res.Len())
	}
	if res.Rows[0][0].AsString() != "I" || res.Rows[2][0].AsString() != "S" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Without DISTINCT the duplicates remain.
	res2, err := db.Query(`SELECT state FROM person`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 5 {
		t.Fatalf("non-distinct rows = %d", res2.Len())
	}
}
