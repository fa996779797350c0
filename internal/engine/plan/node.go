package plan

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Node kinds.
const (
	KindScan      = "scan"
	KindFilter    = "filter"
	KindProject   = "project"
	KindJoin      = "join"
	KindAggregate = "aggregate"
	KindSort      = "sort"
	KindDistinct  = "distinct"
	KindLimit     = "limit"
	// KindOpaque marks an operation the planner does not rewrite
	// through (a rename); it is a barrier for every rewrite rule.
	KindOpaque = "opaque"
)

// AggSpec describes one aggregate output of an Aggregate node.
type AggSpec struct {
	Fn  string `json:"fn"`
	Col string `json:"col,omitempty"`
	As  string `json:"as,omitempty"`
}

// Node is one logical plan operator. A single struct (rather than a
// type per kind) keeps plans trivially serializable and comparable;
// Kind selects which fields are meaningful:
//
//	scan      Table, Alias, Cols, Rows
//	filter    Input, Pred
//	project   Input, Cols
//	join      Left, Right, LeftCol, RightCol, EstRows
//	aggregate Input, Keys, Aggs
//	sort      Input, Col, Desc
//	distinct  Input
//	limit     Input, N
//	opaque    Input, Op
type Node struct {
	Kind string

	Table string
	Alias string
	Cols  []string
	Rows  int64

	// Partitions and BlocksPruned annotate storage-backed scans: how
	// many on-disk partitions (segments) the relation holds and how
	// many column blocks zone maps would prune for the scan's
	// predicate. Zero for in-memory scans.
	Partitions   int64
	BlocksPruned int64

	Pred Expr

	LeftCol  string
	RightCol string
	EstRows  float64

	Keys []string
	Aggs []AggSpec

	Col  string
	Desc bool

	N int

	Op string

	Input *Node
	Left  *Node
	Right *Node
}

// Tree is a complete logical plan with rendering helpers.
type Tree struct {
	Root *Node
}

// Text renders the plan as a deterministic indented tree, child nodes
// two spaces deeper than their parent, join children left before right.
func (t *Tree) Text() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.line())
		b.WriteByte('\n')
		if n.Input != nil {
			walk(n.Input, depth+1)
		}
		if n.Left != nil {
			walk(n.Left, depth+1)
		}
		if n.Right != nil {
			walk(n.Right, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}

// line renders one node without its children.
func (n *Node) line() string {
	switch n.Kind {
	case KindScan:
		s := "scan " + n.Alias
		if n.Table != "" && n.Table != n.Alias {
			s += " (" + n.Table + ")"
		}
		s += " rows=" + strconv.FormatInt(n.Rows, 10)
		if len(n.Cols) > 0 {
			s += " cols=[" + strings.Join(n.Cols, ",") + "]"
		}
		if n.Partitions > 0 {
			s += " partitions=" + strconv.FormatInt(n.Partitions, 10)
		}
		if n.BlocksPruned > 0 {
			s += " blocks_pruned=" + strconv.FormatInt(n.BlocksPruned, 10)
		}
		return s
	case KindFilter:
		return "filter " + n.Pred.String()
	case KindProject:
		return "project [" + strings.Join(n.Cols, ",") + "]"
	case KindJoin:
		return fmt.Sprintf("join %s = %s est_rows=%s",
			n.LeftCol, n.RightCol, formatEst(n.EstRows))
	case KindAggregate:
		var parts []string
		for _, a := range n.Aggs {
			p := a.Fn
			if a.Col != "" {
				p += "(" + a.Col + ")"
			} else {
				p += "(*)"
			}
			if a.As != "" {
				p += " as " + a.As
			}
			parts = append(parts, p)
		}
		return "aggregate keys=[" + strings.Join(n.Keys, ",") + "] aggs=[" + strings.Join(parts, ", ") + "]"
	case KindSort:
		dir := "asc"
		if n.Desc {
			dir = "desc"
		}
		return "sort " + n.Col + " " + dir
	case KindDistinct:
		return "distinct"
	case KindLimit:
		return "limit " + strconv.Itoa(n.N)
	case KindOpaque:
		return "opaque " + n.Op
	}
	return n.Kind
}

// formatEst renders estimated cardinalities compactly and stably.
func formatEst(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// JSON renders the plan as its canonical JSON form.
func (t *Tree) JSON() ([]byte, error) { return json.Marshal(t.Root) }

// --- JSON encoding ---
//
// Expr is an interface, so Node and Expr marshal through kind-tagged
// mirror structs. Literal payloads are rendered as strings (via
// Lit.String-compatible formatting without quotes), which keeps NaN
// and ±Inf floats representable in JSON.

type jsonLit struct {
	Kind string `json:"kind"`
	V    string `json:"v"`
}

type jsonExpr struct {
	Kind string    `json:"kind"` // cmp, between, and, or, not
	Op   string    `json:"op,omitempty"`
	Col  string    `json:"col,omitempty"`
	Val  *jsonLit  `json:"val,omitempty"`
	Lo   *jsonLit  `json:"lo,omitempty"`
	Hi   *jsonLit  `json:"hi,omitempty"`
	L    *jsonExpr `json:"l,omitempty"`
	R    *jsonExpr `json:"r,omitempty"`
}

func litToJSON(l Lit) *jsonLit {
	var v string
	switch l.Kind {
	case LitInt:
		v = strconv.FormatInt(l.I, 10)
	case LitFloat:
		v = strconv.FormatFloat(l.F, 'g', -1, 64)
	case LitString:
		v = l.S
	case LitBool:
		v = strconv.FormatBool(l.B)
	}
	return &jsonLit{Kind: l.Kind.String(), V: v}
}

func exprToJSON(e Expr) *jsonExpr {
	switch t := e.(type) {
	case Cmp:
		return &jsonExpr{Kind: "cmp", Op: t.Op, Col: t.Col, Val: litToJSON(t.Val)}
	case Between:
		return &jsonExpr{Kind: "between", Col: t.Col, Lo: litToJSON(t.Lo), Hi: litToJSON(t.Hi)}
	case And:
		return &jsonExpr{Kind: "and", L: exprToJSON(t.L), R: exprToJSON(t.R)}
	case Or:
		return &jsonExpr{Kind: "or", L: exprToJSON(t.L), R: exprToJSON(t.R)}
	case Not:
		return &jsonExpr{Kind: "not", L: exprToJSON(t.E)}
	}
	return nil
}

type jsonNode struct {
	Kind         string    `json:"kind"`
	Table        string    `json:"table,omitempty"`
	Alias        string    `json:"alias,omitempty"`
	Cols         []string  `json:"cols,omitempty"`
	Rows         int64     `json:"rows,omitempty"`
	Partitions   int64     `json:"partitions,omitempty"`
	BlocksPruned int64     `json:"blocks_pruned,omitempty"`
	Pred         *jsonExpr `json:"pred,omitempty"`
	LeftCol      string    `json:"left_col,omitempty"`
	RightCol     string    `json:"right_col,omitempty"`
	EstRows      float64   `json:"est_rows,omitempty"`
	Keys         []string  `json:"keys,omitempty"`
	Aggs         []AggSpec `json:"aggs,omitempty"`
	Col          string    `json:"col,omitempty"`
	Desc         bool      `json:"desc,omitempty"`
	N            int       `json:"n,omitempty"`
	Op           string    `json:"op,omitempty"`
	Input        *jsonNode `json:"input,omitempty"`
	Left         *jsonNode `json:"left,omitempty"`
	Right        *jsonNode `json:"right,omitempty"`
}

func nodeToJSON(n *Node) *jsonNode {
	if n == nil {
		return nil
	}
	return &jsonNode{
		Kind: n.Kind, Table: n.Table, Alias: n.Alias, Cols: n.Cols, Rows: n.Rows,
		Partitions: n.Partitions, BlocksPruned: n.BlocksPruned,
		Pred: exprToJSON(n.Pred), LeftCol: n.LeftCol, RightCol: n.RightCol,
		EstRows: n.EstRows, Keys: n.Keys, Aggs: n.Aggs,
		Col: n.Col, Desc: n.Desc, N: n.N, Op: n.Op,
		Input: nodeToJSON(n.Input), Left: nodeToJSON(n.Left), Right: nodeToJSON(n.Right),
	}
}

// MarshalJSON implements json.Marshaler.
func (n *Node) MarshalJSON() ([]byte, error) { return json.Marshal(nodeToJSON(n)) }
