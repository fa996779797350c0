package linttest

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"slices"
	"testing"

	"modeldata/internal/lint"
)

// flagCalls reports every call to a function named flagged.
var flagCalls = &lint.Analyzer{
	Name: "flagcalls",
	Doc:  "flags calls to flagged",
	Run: func(pass *lint.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "flagged" {
						pass.Reportf(call.Pos(), "flagged call")
					}
				}
				return true
			})
		}
		return nil
	},
}

// TestUnusedDirective pins that a //lint:allow which suppresses nothing
// is itself a finding, whether its rule ran and found nothing there or
// did not run at all. A directive on a line can carry no want comment,
// so the fixture's findings are listed here.
func TestUnusedDirective(t *testing.T) {
	dir := filepath.Join("testdata", "src", "unused")
	pkg, err := lint.LoadDir(dir, "modeldatalint.test/unused")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings, err := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{flagCalls})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%d: %s (%s)", f.Position.Line, f.Message, f.Rule))
	}
	want := []string{
		"9: //lint:allow flagcalls suppresses no finding; delete it (lintdirective)",
		"11: flagged call (flagcalls)",
		"11: //lint:allow nosuchrule suppresses no finding; delete it (lintdirective)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%q\nwant:\n%q", got, want)
	}
}
