package engine

// Prepared statements: parse a SELECT once, execute it many times,
// and remember the planner's join-order choice between executions.
//
// The cache deliberately stores ONLY the join order (a *plan.Choice),
// keyed by the scans' aliases and row counts. Everything the
// byte-identity machinery depends on — pushed-filter bitmaps, the
// written-order build-side reconstruction, the canonical output
// signature — is recomputed from the actual data on every execution,
// so a recalled order can change speed but never results. If a table
// grows between executions the key changes and the order is re-chosen.
//
// A Prepared is parsed without a database: table names resolve at
// Query/Exec time against whichever Database the caller supplies.
// That is what mcdb needs — one statement planned once, executed
// against every per-stream instantiation.

import (
	"strings"
	"sync"

	"modeldata/internal/engine/plan"
)

// Prepared is a parsed SELECT plus the memoized join-order choice.
// It is safe for concurrent use.
type Prepared struct {
	st *selectStmt

	mu        sync.Mutex
	choiceKey string
	choice    *plan.Choice
}

// Prepare parses a SELECT statement for repeated execution. Only
// SELECT can be prepared; DDL and inserts run through Database.Query.
func Prepare(sql string) (*Prepared, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if !(p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, "select")) {
		return nil, sqlErrf("only SELECT can be prepared, near %q", p.cur().text)
	}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &Prepared{st: st}, nil
}

// Query binds the statement to db and returns the lazy query, wired
// to this statement's choice cache.
func (p *Prepared) Query(db *Database) (*Query, error) {
	q, err := buildSelectQuery(db, p.st)
	if err != nil {
		return nil, err
	}
	nq := *q
	nq.cache = p
	return &nq, nil
}

// Exec binds the statement to db and runs it.
func (p *Prepared) Exec(db *Database) (*Table, error) {
	q, err := p.Query(db)
	if err != nil {
		return nil, err
	}
	return q.Run()
}

// Scalar binds the statement to db and runs it as a scalar query:
// exactly one row and one numeric column, as QueryScalar.
func (p *Prepared) Scalar(db *Database) (float64, error) {
	t, err := p.Exec(db)
	if err != nil {
		return 0, err
	}
	return scalarOf(t)
}

// Explain binds the statement to db and returns its plan tree.
func (p *Prepared) Explain(db *Database) (*plan.Tree, error) {
	q, err := p.Query(db)
	if err != nil {
		return nil, err
	}
	return q.Explain()
}

// lookupChoice recalls the cached join order if the region signature
// still matches.
func (p *Prepared) lookupChoice(key string) *plan.Choice {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.choice != nil && p.choiceKey == key {
		return p.choice
	}
	return nil
}

// storeChoice memoizes a join order. The Choice is treated as
// read-only from here on.
func (p *Prepared) storeChoice(key string, c *plan.Choice) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.choiceKey, p.choice = key, c
}
