package main

import (
	"strings"
	"testing"
)

// TestOutput pins the shell's whole output for the package doc's three
// statements over a small epidemic: every row is a function of the
// fixed seed, and the EXPLAIN is the plan the planner chooses.
func TestOutput(t *testing.T) {
	const stmts = `SELECT state, COUNT(*) AS n FROM person GROUP BY state;
SELECT pid FROM person WHERE age <= 4 AND state = 'I' LIMIT 5;
EXPLAIN SELECT person.age FROM person JOIN contact ON person.pid = contact.src WHERE person.state = 'I';
\q
`
	var b strings.Builder
	if err := run(&b, strings.NewReader(stmts), 300, 10, 1); err != nil {
		t.Fatal(err)
	}
	const want = `epidemic paused at day 10 over 300 people; tables: person, contact
type SQL statements (end with newline), EXPLAIN [JSON] SELECT ... to show plans, or \q to quit
> person_group (4 rows)
state:VARCHAR | n:INT
I | 33
E | 22
S | 209
R | 36
> person (2 rows)
pid:INT
41
249
> explain (5 rows)
plan:VARCHAR
project [person.age]
  join person.pid = contact.src est_rows=299.25
    filter state = 'I'
      scan person rows=300 cols=[pid,age,state]
    scan contact rows=1197 cols=[src]
> `
	if got := b.String(); got != want {
		t.Errorf("output changed:\n%s\nwant:\n%s", got, want)
	}
}
