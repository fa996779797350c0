package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file parses the field/var comment conventions boundedgrowth
// reads:
//
//	mu      sync.Mutex
//	tenants map[string]*tenant // guarded by mu
//	spans   []*Span            // bounded by -trace ring capacity
//
// A directive is a comment that *starts* with the directive phrase
// (after //), so ordinary prose mentioning "guarded by" mid-sentence is
// never parsed as one. The argument is the rest of the comment: a
// `// guarded by` marks its struct as shared and long-lived, and a
// `// bounded by` gives the human-readable reason growth is bounded.

// Directive phrases recognized on struct fields and package-level vars.
const (
	GuardedByDirective = "guarded by"
	BoundedByDirective = "bounded by"
)

// FieldDirectives scans every struct type declared in the unit for
// fields carrying the directive and maps each field object to the
// directive's argument. Directives with no argument are returned as
// malformed positions for the analyzer to report or ignore.
func FieldDirectives(info *types.Info, files []*ast.File, directive string) (map[*types.Var]string, []token.Pos) {
	out := make(map[*types.Var]string)
	var malformed []token.Pos
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				arg, pos, ok := commentDirective(field.Doc, field.Comment, directive)
				if !ok {
					continue
				}
				if arg == "" {
					malformed = append(malformed, pos)
					continue
				}
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						out[v] = arg
					}
				}
			}
			return true
		})
	}
	return out, malformed
}

// VarDirectives scans package-level var declarations for the directive,
// mapping each declared var object to the directive's argument.
func VarDirectives(info *types.Info, files []*ast.File, directive string) (map[*types.Var]string, []token.Pos) {
	out := make(map[*types.Var]string)
	var malformed []token.Pos
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				arg, pos, ok := commentDirective(vs.Doc, vs.Comment, directive)
				if !ok {
					arg, pos, ok = commentDirective(gd.Doc, nil, directive)
				}
				if !ok {
					continue
				}
				if arg == "" {
					malformed = append(malformed, pos)
					continue
				}
				for _, name := range vs.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						out[v] = arg
					}
				}
			}
		}
	}
	return out, malformed
}

// commentDirective looks through the doc and line comment groups for a
// comment whose text starts with the directive phrase and returns the
// trimmed argument after it.
func commentDirective(doc, line *ast.CommentGroup, directive string) (arg string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{doc, line} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, directive) {
				continue
			}
			rest := text[len(directive):]
			if rest != "" && rest[0] != ' ' && rest[0] != ':' && rest[0] != '\t' {
				continue // e.g. "guarded byzantine..." is prose
			}
			return strings.TrimSpace(strings.TrimLeft(rest, ": \t")), c.Pos(), true
		}
	}
	return "", token.NoPos, false
}
