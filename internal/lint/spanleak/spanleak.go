// Package spanleak enforces the span lifecycle: every span returned by
// obs.Start must reach its End() on every control-flow path out of the
// function that started it, typically via defer.
//
// A leaked span never records its end time, so the Chrome trace drops
// the subtree silently — the observability failure mode PR 5 exists to
// prevent. The analyzer builds the intra-function CFG (lint.BuildCFG)
// and asks, for each obs.Start site, whether the exit block is
// reachable without executing an End for that span; return statements,
// early breaks, and panic paths all count as exits, which is why
// `defer sp.End()` immediately after Start is the canonical shape.
//
// Spans that escape the starting function — returned, stored, or passed
// onward — transfer the End obligation with them and are not checked
// here. Test files are exempt: a leaked span in a test distorts no
// production trace.
package spanleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"modeldata/internal/lint"
)

// Analyzer is the spanleak rule.
var Analyzer = &lint.Analyzer{
	Name: "spanleak",
	Doc:  "flags obs.Start spans that do not reach End() on every control-flow path",
	// The obs package itself constructs and finishes spans as data;
	// its tests exercise half-open spans deliberately.
	DefaultAllow: []string{"internal/obs"},
	Run:          run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, body := range functionBodies(f) {
			checkFunc(pass, body)
		}
	}
	return nil
}

// functionBodies yields every function body in the file — declarations
// and literals — each analyzed as its own scope, in source order.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

func checkFunc(pass *lint.Pass, body *ast.BlockStmt) {
	g := lint.BuildCFG(body)
	parents := parentMap(body)
	for _, blk := range g.Blocks {
		for i, node := range blk.Nodes {
			assign, spanExpr := startSite(pass.TypesInfo, node, parents)
			if assign == nil {
				continue
			}
			name, ok := spanExpr.(*ast.Ident)
			if !ok {
				continue // sp stored straight into a field: it escapes
			}
			if name.Name == "_" {
				pass.Reportf(assign.Pos(),
					"span from obs.Start is discarded; bind it and defer its End()")
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				obj = pass.TypesInfo.Uses[name]
			}
			if obj == nil {
				continue
			}
			if escapes(pass.TypesInfo, body, assign, obj, parents) {
				continue // responsibility transferred with the span
			}
			if leaks(g, blk, i, pass.TypesInfo, obj) {
				pass.Reportf(assign.Pos(),
					"span %s from obs.Start does not reach End() on every path; defer %s.End() after Start",
					name.Name, name.Name)
			}
		}
	}
}

// startSite matches `ctx, sp := obs.Start(...)` (any assignment token)
// directly in statement position and returns the assignment and the
// span-side expression. Start detection is by package name and path
// suffix so fixture stubs of obs satisfy it too.
func startSite(info *types.Info, node ast.Node, parents map[ast.Node]ast.Node) (*ast.AssignStmt, ast.Expr) {
	assign, ok := node.(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) != 2 {
		return nil, nil
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	path, fn := lint.CalleePkgFunc(info, call)
	if fn != "Start" || !isObsPath(path) {
		return nil, nil
	}
	return assign, ast.Unparen(assign.Lhs[1])
}

func isObsPath(path string) bool {
	return path == "obs" || strings.HasSuffix(path, "/obs")
}

// escapes reports whether the span object is used beyond its sanctioned
// lifecycle — any use other than End/SetAttr/SetInt calls, nil
// comparisons, its defining assignment, or an End inside a directly
// deferred closure. An escaping span may be finished elsewhere, so the
// analyzer stays quiet about it.
func escapes(info *types.Info, body *ast.BlockStmt, def *ast.AssignStmt, obj types.Object, parents map[ast.Node]ast.Node) bool {
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || (info.Uses[id] != obj && info.Defs[id] != obj) {
			return true
		}
		if sanctionedUse(id, def, parents) {
			return true
		}
		escaped = true
		return false
	})
	return escaped
}

func sanctionedUse(id *ast.Ident, def *ast.AssignStmt, parents map[ast.Node]ast.Node) bool {
	switch p := parents[id].(type) {
	case *ast.AssignStmt:
		return p == def // the defining statement itself
	case *ast.BinaryExpr:
		return p.Op == token.EQL || p.Op == token.NEQ // sp != nil guards
	case *ast.SelectorExpr:
		if p.X != id {
			return false
		}
		call, ok := parents[p].(*ast.CallExpr)
		if !ok || call.Fun != p {
			return false
		}
		switch p.Sel.Name {
		case "SetAttr", "SetInt":
			return enclosingFuncLit(call, parents) == nil
		case "End":
			lit := enclosingFuncLit(call, parents)
			if lit == nil {
				return true
			}
			// sp.End() inside a closure counts only for the
			// canonical `defer func() { ... sp.End() ... }()`.
			litCall, ok := parents[lit].(*ast.CallExpr)
			if !ok || litCall.Fun != lit {
				return false
			}
			_, isDefer := parents[litCall].(*ast.DeferStmt)
			return isDefer && enclosingFuncLit(parents[litCall], parents) == nil
		}
	}
	return false
}

// enclosingFuncLit returns the innermost function literal containing n,
// or nil when n belongs directly to the analyzed body.
func enclosingFuncLit(n ast.Node, parents map[ast.Node]ast.Node) *ast.FuncLit {
	for p := parents[n]; p != nil; p = parents[p] {
		if lit, ok := p.(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// leaks reports whether the exit block is reachable from just after the
// Start site without executing an End event for obj.
func leaks(g *lint.CFG, startBlk *lint.Block, startIdx int, info *types.Info, obj types.Object) bool {
	type at struct {
		b *lint.Block
		i int
	}
	seen := make(map[*lint.Block]bool)
	stack := []at{{startBlk, startIdx + 1}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ended := false
		for i := cur.i; i < len(cur.b.Nodes); i++ {
			if endsSpan(cur.b.Nodes[i], info, obj) {
				ended = true
				break
			}
		}
		if ended {
			continue
		}
		if cur.b == g.Exit {
			return true
		}
		for _, s := range cur.b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, at{s, 0})
			}
		}
	}
	return false
}

// endsSpan reports whether node is an End event for the span: a direct
// sp.End() call, defer sp.End(), or a deferred closure containing
// sp.End().
func endsSpan(node ast.Node, info *types.Info, obj types.Object) bool {
	switch n := node.(type) {
	case *ast.ExprStmt:
		return isEndCall(n.X, info, obj)
	case *ast.DeferStmt:
		if isEndCall(n.Call, info, obj) {
			return true
		}
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			found := false
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if found {
					return false
				}
				if e, ok := m.(ast.Expr); ok && isEndCall(e, info, obj) {
					found = true
				}
				return !found
			})
			return found
		}
	}
	return false
}

func isEndCall(e ast.Expr, info *types.Info, obj types.Object) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

// parentMap records each node's syntactic parent within body.
func parentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
