package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// allowDirective is the comment prefix that suppresses a diagnostic.
const allowDirective = "//lint:allow"

// directive is one well-formed //lint:allow comment.
type directive struct {
	pos  token.Position
	rule string
	used bool
}

// allowKey is one (file, line, rule) a directive covers.
type allowKey struct {
	file string
	line int
	rule string
}

// allows holds a unit's directives and what each covers.
type allows struct {
	all   []*directive
	byKey map[allowKey][]*directive
}

// allowed reports whether a directive covers f, marking every directive
// that does as used.
func (s allows) allowed(f Finding) bool {
	ds := s.byKey[allowKey{f.Position.Filename, f.Position.Line, f.Rule}]
	for _, d := range ds {
		d.used = true
	}
	return len(ds) > 0
}

// unused returns a "lintdirective" finding for every directive that
// suppressed nothing, including one naming a rule that did not run.
func (s allows) unused() []Finding {
	var out []Finding
	for _, d := range s.all {
		if !d.used {
			out = append(out, Finding{
				Position: d.pos,
				Rule:     "lintdirective",
				Message:  fmt.Sprintf("//lint:allow %s suppresses no finding; delete it", d.rule),
			})
		}
	}
	return out
}

// collectAllows scans every comment in the unit for //lint:allow
// directives. A directive suppresses the named rule on its own line and
// on the line that follows it, so both trailing and leading placement
// work:
//
//	_ = net.AddEdge(a, b, w) //lint:allow errdrop indices are in range by construction
//
//	//lint:allow maporder commutative fold, order cannot leak
//	for k := range m { ... }
//
// A directive missing its rule or its reason is returned as a
// "lintdirective" finding so sloppy suppressions fail CI like any other
// diagnostic.
func collectAllows(fset *token.FileSet, files []*ast.File) (allows, []Finding) {
	s := allows{byKey: make(map[allowKey][]*directive)}
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowDirective)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Position: pos,
						Rule:     "lintdirective",
						Message:  "malformed //lint:allow: need a rule name and a one-line reason",
					})
					continue
				}
				d := &directive{pos: pos, rule: fields[0]}
				s.all = append(s.all, d)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := allowKey{pos.Filename, line, d.rule}
					s.byKey[k] = append(s.byKey[k], d)
				}
			}
		}
	}
	return s, bad
}
