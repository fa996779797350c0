// Package rngsource forbids ambient nondeterminism sources: imports of
// math/rand and crypto/rand, and wall-clock reads via time.Now().
//
// Every random draw in this repository must come from an explicit,
// pre-split rng.Stream so that results are bit-identical across runs
// and worker counts (DESIGN.md §4). A math/rand import reintroduces
// hidden global state; crypto/rand is unseedable by construction; and
// time.Now() is the classic back door (seeding from the clock, or
// letting wall-time flow into results). The only compiled-in exception
// besides internal/rng itself is internal/obs/obs.go, where the single
// time.Now() call in the codebase lives behind the obs.Clock seam —
// every measurement-only clock read (span timing, stats elapsed)
// goes through an injectable obs.Clock, so tests
// can freeze time and the lint surface stays one line. Everything else
// needs an inline //lint:allow rngsource with its reason.
package rngsource

import (
	"go/ast"
	"strconv"

	"modeldata/internal/lint"
)

// bannedImports maps each forbidden import path to the remedy named in
// the diagnostic.
var bannedImports = map[string]string{
	"math/rand":    "draw from a pre-split *rng.Stream instead",
	"math/rand/v2": "draw from a pre-split *rng.Stream instead",
	"crypto/rand":  "unseedable randomness can never be reproduced; use internal/rng",
}

// Analyzer is the rngsource rule.
var Analyzer = &lint.Analyzer{
	Name: "rngsource",
	Doc: "forbids math/rand and crypto/rand imports and time.Now() wall-clock reads; " +
		"all randomness must flow through internal/rng streams seeded by the experiment",
	DefaultAllow: []string{
		"modeldata/internal/rng",
		"internal/obs/obs.go",
	},
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := bannedImports[path]; ok {
				pass.Reportf(imp.Pos(), "import of %s breaks seed-reproducibility: %s", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, name := lint.CalleePkgFunc(pass.TypesInfo, call); pkg == "time" && name == "Now" {
				pass.Reportf(call.Pos(),
					"time.Now() is a nondeterministic input (wall-clock seeding or timing leaking into results); "+
						"take the value as a parameter, or //lint:allow rngsource if this is measurement-only")
			}
			return true
		})
	}
	return nil
}
