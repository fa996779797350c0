// Package lint is a minimal static-analysis framework in the style of
// golang.org/x/tools/go/analysis, built entirely on the standard
// library so that the repository stays dependency-free. It exists to
// enforce, at compile time, the determinism invariants the experiments
// rely on at run time: all randomness flows through pre-split rng
// substreams, map iteration never leaks its nondeterministic order into
// results, and long-running entry points plumb a context.Context.
//
// The framework mirrors the x/tools API surface the analyzers need
// (Analyzer, Pass, Reportf, an analysistest-style fixture runner in the
// sibling linttest package) without the dependency: the container this
// repo builds in is hermetic, so golang.org/x/tools cannot be fetched
// or pinned. Should that change, each analyzer's Run func ports to a
// real go/analysis.Analyzer mechanically.
//
// Suppression: a diagnostic is suppressed either by an analyzer's
// compiled-in DefaultAllow list (path fragments for packages whose job
// is exactly the flagged behavior, e.g. internal/rng for rngsource) or
// by an inline directive on, or immediately above, the offending line:
//
//	//lint:allow <rule> <one-line reason>
//
// The reason is mandatory; a bare directive is itself reported, and so
// is one that suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //lint:allow
	// directives, e.g. "maporder".
	Name string

	// Doc is a one-paragraph description of the invariant the
	// analyzer enforces, shown by `modeldatalint -help`.
	Doc string

	// DefaultAllow lists path fragments (matched as substrings of
	// the diagnostic's file path and the unit's import path) whose
	// diagnostics are suppressed without an inline directive. It is
	// reserved for packages whose purpose is the flagged behavior.
	DefaultAllow []string

	// Run inspects one package unit and reports findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package unit through one analyzer.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	ImportPath string

	report func(Finding)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Position: p.Fset.Position(pos),
		Rule:     p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one diagnostic with its resolved file position.
type Finding struct {
	Position token.Position
	Rule     string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Rule)
}

// RunAnalyzers applies every analyzer to every package unit, applies
// DefaultAllow lists and //lint:allow directives, and returns the
// surviving findings in deterministic (file, line, column, rule) order.
// Malformed directives, and directives that suppressed no finding of the
// analyzers that ran, are returned as findings of rule "lintdirective".
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg.Fset, pkg.Files)
		out = append(out, bad...)
		for _, a := range analyzers {
			var found []Finding
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				ImportPath: pkg.ImportPath,
				report:     func(f Finding) { found = append(found, f) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			for _, f := range found {
				if defaultAllowed(a, pkg.ImportPath, f.Position.Filename) {
					continue
				}
				if allows.allowed(f) {
					continue
				}
				out = append(out, f)
			}
		}
		out = append(out, allows.unused()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Rule < b.Rule
	})
	return out, nil
}

func defaultAllowed(a *Analyzer, importPath, filename string) bool {
	for _, frag := range a.DefaultAllow {
		if strings.Contains(filename, frag) || strings.Contains(importPath, frag) {
			return true
		}
	}
	return false
}
