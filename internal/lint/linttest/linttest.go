// Package linttest runs an analyzer over a fixture package and checks
// its diagnostics against expectations written in the fixture itself,
// in the style of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture lives in testdata/src/<name>/ relative to the analyzer's
// test. Lines that must be flagged carry a trailing want comment whose
// quoted regexp must match the diagnostic message:
//
//	seed := time.Now() // want `nondeterministic input`
//
// Lines with a //lint:allow directive exercise the suppression path:
// they must produce no surviving diagnostic, like any unannotated
// clean line. Multiple diagnostics on one line take multiple quoted
// regexps in a single want comment.
package linttest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"modeldata/internal/lint"
)

// wantRE extracts the quoted regexps of a want comment; both `...`
// and "..." quoting are accepted.
var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads testdata/src/<fixture> as one package, applies the
// analyzer with suppression, and reports any mismatch between the
// surviving diagnostics and the fixture's want comments.
func Run(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := lint.LoadDir(dir, "modeldatalint.test/"+fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings, err := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	wants := collectWants(t, pkg.Fset, pkg.Files)
	matched := make([]bool, len(wants))
	for _, f := range findings {
		if !claim(wants, matched, f) {
			t.Errorf("%s: unexpected diagnostic: %s", fixture, f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
				fixture, filepath.Base(w.file), w.line, w.pattern)
		}
	}
}

type want struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
}

// collectWants parses every `// want` comment into one expectation per
// quoted regexp, anchored to the comment's line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(strings.TrimPrefix(text, "want "), -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, pattern: pat, re: re})
				}
			}
		}
	}
	return wants
}

// claim marks the first unmatched want on the finding's line whose
// regexp matches; it reports whether one was found.
func claim(wants []want, matched []bool, f lint.Finding) bool {
	for i, w := range wants {
		if matched[i] || w.line != f.Position.Line || w.file != f.Position.Filename {
			continue
		}
		if w.re.MatchString(f.Message) {
			matched[i] = true
			return true
		}
	}
	return false
}
