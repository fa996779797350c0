package engine

// This file gives the engine a textual SQL dialect, since every system
// surveyed in the paper exposes SQL: MCDB/SimSQL queries, Indemics'
// observation queries and Algorithm 1, and the DEFINE-style scalar
// statements. The dialect covers:
//
//	SELECT [DISTINCT] <cols | * | aggregates> FROM <table>
//	    [JOIN <table> ON <col> = <col>]...
//	    [WHERE <boolean expression>]
//	    [GROUP BY <cols>]
//	    [ORDER BY <col> [ASC|DESC]]
//	    [LIMIT <n>]
//	EXPLAIN [JSON] SELECT ...
//	CREATE TABLE <name> (<col> <type>, ...)
//	INSERT INTO <name> VALUES (<literal>, ...)
//
// Aggregates: COUNT(*), COUNT(col), SUM, AVG, MIN, MAX, with optional
// "AS alias". WHERE supports comparisons (=, <>, !=, <, <=, >, >=),
// BETWEEN ... AND ..., AND/OR/NOT, and parentheses; literals are
// (optionally signed) numbers, 'strings', TRUE/FALSE.
//
// Dialect notes: after a JOIN, columns are addressed by their
// table-qualified names ("person.pid"); in grouped queries the output
// lists the GROUP BY keys first and then the aggregates, regardless of
// SELECT-list order.
//
// Statements compile onto the Query builder (WHERE becomes a
// plan.Expr), so SQL flows through the same cost-based planner as
// builder queries: filters are pushed below joins, join order and
// build sides are chosen by estimated cardinality, and EXPLAIN renders
// the chosen plan as text (or, with EXPLAIN JSON, as a serialized plan
// tree) without executing the query.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"modeldata/internal/engine/plan"
)

// ErrSQL wraps all SQL parse and execution errors.
var ErrSQL = errors.New("engine: SQL error")

func sqlErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSQL, fmt.Sprintf(format, args...))
}

// --- lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lexSQL(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			l.lexNumber()
		case unicode.IsLetter(rune(c)) || c == '_':
			l.lexIdent()
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF})
	return l.toks, nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String()})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return sqlErrf("unterminated string at offset %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsDigit(rune(c)) || c == '.' || c == 'e' || c == 'E' ||
			((c == '+' || c == '-') && l.pos > start && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E')) {
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos]})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.' {
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos]})
}

func (l *lexer) lexSymbol() error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.toks = append(l.toks, token{kind: tokSymbol, text: two})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '=', '<', '>', '*', ';', '-', '+':
		l.toks = append(l.toks, token{kind: tokSymbol, text: string(c)})
		l.pos++
		return nil
	}
	return sqlErrf("unexpected character %q at offset %d", c, l.pos)
}

// --- parser ---

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// keyword reports whether the current token is the given keyword
// (case-insensitive) and consumes it if so.
func (p *parser) keyword(kw string) bool {
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return sqlErrf("expected %s near %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) symbol(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.symbol(s) {
		return sqlErrf("expected %q near %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tokIdent {
		return "", sqlErrf("expected identifier near %q", p.cur().text)
	}
	return p.next().text, nil
}

// selectItem is one SELECT-list entry.
type selectItem struct {
	star  bool    // plain column "*": SELECT *
	col   string  // column reference
	agg   AggFunc // valid when isAgg
	isAgg bool
	alias string
}

// sqlJoin is one JOIN clause.
type sqlJoin struct {
	table string
	left  string // left join column, as written
	right string // right join column, as written
}

// selectStmt is a parsed SELECT.
type selectStmt struct {
	distinct bool
	items    []selectItem
	from     string
	joins    []sqlJoin
	where    plan.Expr // nil when absent
	groupBy  []string
	orderBy  string
	desc     bool
	limit    int // -1 when absent
}

var aggNames = map[string]AggFunc{
	"count": AggCount, "sum": AggSum, "avg": AggAvg, "min": AggMin, "max": AggMax,
}

func (p *parser) parseSelect() (*selectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	st := &selectStmt{limit: -1}
	st.distinct = p.keyword("distinct")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.items = append(st.items, item)
		if !p.symbol(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.from = from
	for p.keyword("join") {
		var jn sqlJoin
		jn.table, err = p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		jn.left, err = p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		jn.right, err = p.ident()
		if err != nil {
			return nil, err
		}
		st.joins = append(st.joins, jn)
	}
	if p.keyword("where") {
		st.where, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	}
	if p.keyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.groupBy = append(st.groupBy, col)
			if !p.symbol(",") {
				break
			}
		}
	}
	if p.keyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		st.orderBy, err = p.ident()
		if err != nil {
			return nil, err
		}
		if p.keyword("desc") {
			st.desc = true
		} else {
			p.keyword("asc")
		}
	}
	if p.keyword("limit") {
		if p.cur().kind != tokNumber {
			return nil, sqlErrf("expected number after LIMIT near %q", p.cur().text)
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil {
			return nil, sqlErrf("bad LIMIT: %v", err)
		}
		st.limit = n
	}
	p.symbol(";")
	if p.cur().kind != tokEOF {
		return nil, sqlErrf("trailing input near %q", p.cur().text)
	}
	return st, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	var item selectItem
	if p.symbol("*") {
		item.star = true
		return item, nil
	}
	name, err := p.ident()
	if err != nil {
		return item, err
	}
	if fn, isAgg := aggNames[strings.ToLower(name)]; isAgg && p.symbol("(") {
		item.isAgg = true
		item.agg = fn
		if p.symbol("*") {
			if fn != AggCount {
				return item, sqlErrf("%s(*) is only valid for COUNT", name)
			}
		} else {
			item.col, err = p.ident()
			if err != nil {
				return item, err
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return item, err
		}
	} else {
		item.col = name
	}
	if p.keyword("as") {
		item.alias, err = p.ident()
		if err != nil {
			return item, err
		}
	}
	return item, nil
}

// The WHERE grammar parses directly into plan.Expr nodes — the same
// inspectable expression values the planner pushes below joins.

func (p *parser) parseOr() (plan.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = plan.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (plan.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = plan.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (plan.Expr, error) {
	if p.keyword("not") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return plan.Not{E: inner}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (plan.Expr, error) {
	if p.symbol("(") {
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.keyword("between") {
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return plan.Between{Col: col, Lo: litOfValue(lo), Hi: litOfValue(hi)}, nil
	}
	if p.cur().kind != tokSymbol {
		return nil, sqlErrf("expected comparison operator near %q", p.cur().text)
	}
	op := p.next().text
	switch op {
	case "=", "<>", "!=", "<", "<=", ">", ">=":
	default:
		return nil, sqlErrf("unknown operator %q", op)
	}
	val, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	return plan.Cmp{Op: op, Col: col, Val: litOfValue(val)}, nil
}

func (p *parser) parseLiteral() (Value, error) {
	// Leading sign on numeric literals.
	if p.cur().kind == tokSymbol && (p.cur().text == "-" || p.cur().text == "+") {
		neg := p.next().text == "-"
		v, err := p.parseLiteral()
		if err != nil {
			return Value{}, err
		}
		if !neg {
			return v, nil
		}
		switch v.Type() {
		case TypeInt:
			return Int(-v.AsInt()), nil
		case TypeFloat:
			return Float(-v.AsFloat()), nil
		}
		return Value{}, sqlErrf("cannot negate %s literal", v.Type())
	}
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Value{}, sqlErrf("bad number %q", t.text)
			}
			return Float(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Value{}, sqlErrf("bad integer %q", t.text)
		}
		return Int(n), nil
	case tokString:
		p.i++
		return Str(t.text), nil
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "true":
			p.i++
			return Bool(true), nil
		case "false":
			p.i++
			return Bool(false), nil
		}
	}
	return Value{}, sqlErrf("expected literal near %q", t.text)
}

// --- execution ---

// selectAggs extracts the aggregate list of a grouped SELECT,
// validating that non-aggregate items are GROUP BY keys.
func selectAggs(st *selectStmt) ([]Aggregate, error) {
	var aggs []Aggregate
	for _, item := range st.items {
		if !item.isAgg {
			// Non-aggregate items must be group-by keys; they are
			// emitted automatically by GroupBy.
			if !containsFold(st.groupBy, item.col) {
				return nil, sqlErrf("column %q must appear in GROUP BY", item.col)
			}
			continue
		}
		name := item.alias
		if name == "" {
			name = strings.ToLower(item.agg.String())
			if item.col != "" {
				name += "_" + item.col
			}
		}
		aggs = append(aggs, Aggregate{Fn: item.agg, Col: item.col, As: name})
	}
	return aggs, nil
}

// selectProjection extracts the projection columns and renames of a
// non-aggregate SELECT list.
func selectProjection(st *selectStmt) (cols []string, renames map[string]string, err error) {
	renames = map[string]string{}
	for _, item := range st.items {
		if item.star {
			return nil, nil, sqlErrf("cannot mix * with named columns")
		}
		cols = append(cols, item.col)
		if item.alias != "" {
			renames[item.col] = item.alias
		}
	}
	return cols, renames, nil
}

func selectHasAgg(st *selectStmt) bool {
	for _, item := range st.items {
		if item.isAgg {
			return true
		}
	}
	return false
}

// buildSelectQuery compiles a parsed SELECT onto the Query builder,
// which hands it to the planner at Run. The first JOIN prefixes both
// sides' columns with their table names; later JOINs keep the
// accumulated names and prefix only the new table, so every column
// stays addressable as "table.col" however many joins are chained.
func buildSelectQuery(db *Database, st *selectStmt) (*Query, error) {
	var q *Query
	if t, err := db.Get(st.from); err == nil {
		q = From(t)
	} else if stg, ok := db.Storage(st.from); ok {
		// FROM falls back to a registered storage backend when no
		// in-memory table claims the name. JOIN right sides stay
		// table-only: join operands must be resident either way, and
		// keeping them tables preserves the planner's join region.
		q = FromStorage(stg)
	} else {
		return nil, err
	}
	for i, jn := range st.joins {
		right, err := db.Get(jn.table)
		if err != nil {
			return nil, err
		}
		// ON names its operands in either order: the one qualified by
		// the joined table, when the other is not, is the right side.
		leftArg, rightArg := jn.left, jn.right
		if qualifiedBy(leftArg, jn.table) && !qualifiedBy(rightArg, jn.table) {
			leftArg, rightArg = rightArg, leftArg
		}
		// Join columns may be written bare or table-qualified
		// ("person.pid"); strip a matching table qualifier so the name
		// resolves against the pre-join schemas. After the first join
		// the left side keeps its qualified names, so the qualifier is
		// stripped only against the original FROM table.
		if i == 0 {
			leftArg = stripQualifier(leftArg, st.from)
		}
		q = q.join(right, leftArg, stripQualifier(rightArg, jn.table), i > 0)
	}
	if st.where != nil {
		q = q.WhereExpr(st.where)
	}
	if selectHasAgg(st) || len(st.groupBy) > 0 {
		aggs, err := selectAggs(st)
		if err != nil {
			return nil, err
		}
		q = q.GroupBy(st.groupBy, aggs...)
	} else if !(len(st.items) == 1 && st.items[0].star) {
		cols, renames, err := selectProjection(st)
		if err != nil {
			return nil, err
		}
		q = q.Select(cols...)
		// Renames of distinct columns commute; apply in sorted order
		// for determinism.
		fromCols := make([]string, 0, len(renames))
		for from := range renames {
			fromCols = append(fromCols, from)
		}
		sort.Strings(fromCols)
		for _, from := range fromCols {
			q = q.Rename(from, renames[from])
		}
	}
	if st.distinct {
		q = q.Distinct()
	}
	if st.orderBy != "" {
		q = q.OrderBy(st.orderBy, st.desc)
	}
	if st.limit >= 0 {
		q = q.Limit(st.limit)
	}
	if q.err != nil {
		return nil, q.err
	}
	return q, nil
}

// explainTable renders a plan tree as the EXPLAIN result table: one
// "plan" text column, one row per plan line (or a single row holding
// the JSON document).
func explainTable(tree *plan.Tree, asJSON bool) (*Table, error) {
	out, err := NewTable("explain", Schema{{Name: "plan", Type: TypeString}})
	if err != nil {
		return nil, err
	}
	if asJSON {
		data, err := tree.JSON()
		if err != nil {
			return nil, err
		}
		if err := out.Insert(Row{Str(string(data))}); err != nil {
			return nil, err
		}
		return out, nil
	}
	text := strings.TrimRight(tree.Text(), "\n")
	for _, line := range strings.Split(text, "\n") {
		if err := out.Insert(Row{Str(line)}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stripQualifier removes a "table." prefix when it names the expected
// table.
func stripQualifier(col, table string) string {
	if i := strings.IndexByte(col, '.'); i > 0 && strings.EqualFold(col[:i], table) {
		return col[i+1:]
	}
	return col
}

// qualifiedBy reports whether col is written "table.col".
func qualifiedBy(col, table string) bool { return stripQualifier(col, table) != col }

func containsFold(xs []string, s string) bool {
	for _, x := range xs {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

// Query executes a SQL statement against the database and returns the
// result table. Supported statements: SELECT (returns rows), EXPLAIN
// [JSON] SELECT (returns the plan as a one-column text table), CREATE
// TABLE (returns an empty result), INSERT INTO ... VALUES (returns an
// empty result).
func (db *Database) Query(sql string) (*Table, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	switch {
	case p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, "select"):
		st, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		q, err := buildSelectQuery(db, st)
		if err != nil {
			return nil, err
		}
		return q.Run()
	case p.keyword("explain"):
		asJSON := p.keyword("json")
		if !(p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, "select")) {
			return nil, sqlErrf("EXPLAIN supports only SELECT, near %q", p.cur().text)
		}
		st, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		q, err := buildSelectQuery(db, st)
		if err != nil {
			return nil, err
		}
		tree, err := q.Explain()
		if err != nil {
			return nil, err
		}
		return explainTable(tree, asJSON)
	case p.keyword("create"):
		return db.execCreate(p)
	case p.keyword("insert"):
		return db.execInsert(p)
	}
	return nil, sqlErrf("expected SELECT, EXPLAIN, CREATE TABLE, or INSERT near %q", p.cur().text)
}

// QueryScalar executes a SELECT that must produce exactly one row and
// one numeric column, such as a COUNT. Prepared.Scalar does the same
// for a statement run many times.
func (db *Database) QueryScalar(sql string) (float64, error) {
	t, err := db.Query(sql)
	if err != nil {
		return 0, err
	}
	return scalarOf(t)
}

// scalarOf reads the one numeric cell of a scalar query's result.
func scalarOf(t *Table) (float64, error) {
	if t.Len() != 1 || len(t.Schema) != 1 {
		return 0, sqlErrf("scalar query returned %d×%d", t.Len(), len(t.Schema))
	}
	v := t.Rows[0][0]
	if !v.IsNumeric() {
		return 0, sqlErrf("scalar query returned %s", v.Type())
	}
	return v.AsFloat(), nil
}

var typeNames = map[string]Type{
	"int": TypeInt, "integer": TypeInt, "bigint": TypeInt,
	"float": TypeFloat, "double": TypeFloat, "real": TypeFloat,
	"varchar": TypeString, "text": TypeString, "string": TypeString,
	"bool": TypeBool, "boolean": TypeBool,
}

func (db *Database) execCreate(p *parser) (*Table, error) {
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var schema Schema
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		typeName, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, ok := typeNames[strings.ToLower(typeName)]
		if !ok {
			return nil, sqlErrf("unknown type %q", typeName)
		}
		// Swallow optional length suffix: VARCHAR(32).
		if p.symbol("(") {
			if p.cur().kind != tokNumber {
				return nil, sqlErrf("expected length near %q", p.cur().text)
			}
			p.next()
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
		schema = append(schema, Column{Name: col, Type: typ})
		if !p.symbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	p.symbol(";")
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	db.Put(t)
	return &Table{Name: name, Schema: schema.Clone()}, nil
}

func (db *Database) execInsert(p *parser) (*Table, error) {
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	t, err := db.Get(name)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	inserted := 0
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row Row
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.symbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
		inserted++
		if !p.symbol(",") {
			break
		}
	}
	p.symbol(";")
	out, err := NewTable("inserted", Schema{{Name: "n", Type: TypeInt}})
	if err != nil {
		return nil, err
	}
	if err := out.Insert(Row{Int(int64(inserted))}); err != nil {
		return nil, err
	}
	return out, nil
}
