// Package errdrop flags discarded error returns: `_ =` assignments and
// bare call statements whose error result vanishes.
//
// PR 5's silent-failure sweep showed what these hide — a checkpoint
// write that never happened, a trace file half-flushed — so outside
// test files every dropped error must either be handled or carry a
// //lint:allow errdrop with the reason the drop is safe.
//
// Two shapes are flagged:
//
//	f()          // bare call, error result ignored
//	_ = f()      // explicit discard
//
// A partial discard like `v, _ := f()` is NOT flagged: naming what you
// keep makes the blank visible and reviewable at the call site. Also
// exempt: deferred and go'd calls (the `defer f.Close()` idiom — the
// error has nowhere to go), the fmt Print family (this repo prints to
// stdout and strings.Builder), and methods on strings/bytes/hash types,
// whose errors are documented to be always nil.
package errdrop

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"modeldata/internal/lint"
)

// Analyzer is the errdrop rule.
var Analyzer = &lint.Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded error returns (`_ =` and bare calls) outside tests and annotated sites",
	Run:  run,
}

var printFamily = map[string]bool{
	"Print": true, "Println": true, "Printf": true,
	"Fprint": true, "Fprintln": true, "Fprintf": true,
}

// alwaysNilPkgs declare their methods' errors always nil
// (strings.Builder, bytes.Buffer, hash.Hash).
var alwaysNilPkgs = map[string]bool{"strings": true, "bytes": true, "hash": true}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkBareCall(pass, n)
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBareCall flags an expression statement that silently drops an
// error result.
func checkBareCall(pass *lint.Pass, stmt *ast.ExprStmt) {
	call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
	if !ok {
		return
	}
	if !returnsError(pass.TypesInfo, call) || exempt(pass.TypesInfo, call) {
		return
	}
	pass.Reportf(stmt.Pos(),
		"error returned by %s is silently dropped (bare call); handle it, log it, or annotate //lint:allow errdrop",
		exprString(pass.Fset, call.Fun))
}

// checkBlankAssign flags `_ = expr` / `_, _ = f()` where the discarded
// value (or the call's last result) is an error.
func checkBlankAssign(pass *lint.Pass, stmt *ast.AssignStmt) {
	if stmt.Tok != token.ASSIGN || len(stmt.Rhs) != 1 {
		return
	}
	for _, lhs := range stmt.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name != "_" {
			return // partial discards name what they keep; not flagged
		}
	}
	rhs := ast.Unparen(stmt.Rhs[0])
	if call, ok := rhs.(*ast.CallExpr); ok {
		if !returnsError(pass.TypesInfo, call) || exempt(pass.TypesInfo, call) {
			return
		}
		pass.Reportf(stmt.Pos(),
			"error from %s discarded with _ =; handle it, log it, or annotate //lint:allow errdrop",
			exprString(pass.Fset, call.Fun))
		return
	}
	if isErrorType(lint.TypeOf(pass.TypesInfo, rhs)) {
		pass.Reportf(stmt.Pos(),
			"error value discarded with _ =; handle it, log it, or annotate //lint:allow errdrop")
	}
}

// returnsError reports whether the call's last result is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := lint.TypeOf(info, call)
	if tuple, ok := t.(*types.Tuple); ok {
		return tuple.Len() > 0 && isErrorType(tuple.At(tuple.Len()-1).Type())
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// exempt reports whether the call's dropped error is sanctioned: the
// fmt Print family, or a method on a type from a package documented to
// always return nil errors.
func exempt(info *types.Info, call *ast.CallExpr) bool {
	if pkg, name := lint.CalleePkgFunc(info, call); pkg == "fmt" && printFamily[name] {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// The selection's receiver is the static type at the call site
	// (hash.Hash32 for h.Write), not where the method was declared
	// (io.Writer) — the site type is what the always-nil contract is
	// documented on.
	selection := info.Selections[sel]
	if selection == nil {
		return false
	}
	rt := selection.Recv()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return alwaysNilPkgs[named.Obj().Pkg().Path()]
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "call"
	}
	return buf.String()
}
