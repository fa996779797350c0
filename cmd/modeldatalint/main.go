// Command modeldatalint statically enforces the repository's
// determinism and service invariants. It is a multichecker over the
// analyzers in internal/lint/suite:
//
//	rngsource      no math/rand, crypto/rand, or time.Now() outside the allowlist
//	maporder       no map-iteration order leaking into results
//	ctxplumb       long-running entry points plumb context.Context
//	boundedgrowth  long-lived maps/slices route through internal/lru or document a bound
//	errdrop        no silently discarded errors
//	ctxhttp        HTTP calls thread a context and close response bodies
//
// Usage:
//
//	go run ./cmd/modeldatalint ./...
//	go run ./cmd/modeldatalint -list   # analyzer names, one per line
//	go run ./cmd/modeldatalint -help
//
// Exit code contract, pinned by cmd/modeldatalint tests: 0 when every
// package is clean, 1 when unsuppressed diagnostics remain, 2 when the
// packages could not be loaded or do not type-check. Intentional
// violations are suppressed in place:
//
//	//lint:allow <rule> <one-line reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"modeldata/internal/lint"
	"modeldata/internal/lint/suite"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment explicit, so the exit-code contract
// is testable in-process.
func run(dir string, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modeldatalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	help := fs.Bool("help", false, "describe each analyzer and exit")
	list := fs.Bool("list", false, "print analyzer names, one per line, and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: modeldatalint [-help] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	analyzers := suite.All()
	if *help {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintln(stdout, a.Name)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "modeldatalint:", err)
		return 2
	}
	findings, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "modeldatalint:", err)
		return 2
	}

	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "modeldatalint: %d unsuppressed diagnostic(s)\n", len(findings))
		return 1
	}
	return 0
}
