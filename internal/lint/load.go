package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed, type-checked unit: a package's non-test and
// in-package test files together, or an external _test package on its
// own.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir         string
	ImportPath  string
	Export      string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	ImportMap   map[string]string
	Standard    bool
	ForTest     string
	Match       []string
}

// Load enumerates the packages matching patterns, with their
// dependencies and test variants, in one `go list -deps -test -export`
// run in dir, then parses and type-checks each unit from source.
// Imports resolve to the export data the go command compiled, so no
// dependency — the standard library included — is checked from source.
//
// A package with in-package test files is checked as its test variant
// "p [p.test]", whose GoFiles are the package's and its _test.go files
// together (the test files see unexported names, so the halves cannot
// be checked apart); an external _test package is its own unit. Units
// check in parallel, each through its own importer, and any type error
// is a load error: an analyzer over a partly checked unit would
// quietly miss things.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-deps", "-test", "-export", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var units []listedPackage
	for _, lp := range listed {
		exports[lp.ImportPath] = lp.Export
		if !lp.Standard && len(lp.CgoFiles) == 0 && isUnit(lp) {
			units = append(units, lp)
		}
	}

	fset := token.NewFileSet()
	pkgs := make([]*Package, len(units))
	errs := make([]error, len(units))
	parallelDo(len(units), func(i int) {
		lp := units[i]
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		files, err := parseFiles(fset, lp.Dir, lp.GoFiles)
		if err == nil {
			imp := importer.ForCompiler(fset, "gc", exportLookup(exports, lp.ImportMap))
			pkgs[i], err = check(fset, imp, path, files)
		}
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", path, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// isUnit reports whether a listed package is one the analyzers see: a
// matched package without in-package tests, the "p [p.test]" variant of
// one with them, or an external "p_test [p.test]" package. Dependencies
// recompiled for a test ("q [p.test]") and generated test mains are not.
func isUnit(lp listedPackage) bool {
	if lp.ForTest == "" {
		return len(lp.Match) > 0 && len(lp.TestGoFiles) == 0
	}
	path, _, _ := strings.Cut(lp.ImportPath, " ")
	return (path == lp.ForTest && len(lp.TestGoFiles) > 0) || path == lp.ForTest+"_test"
}

// exportLookup opens the export data for an import path as seen from a
// unit whose ImportMap is importMap: the map redirects a path to the
// test variant the unit was compiled against.
func exportLookup(exports, importMap map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// parallelDo runs f(0..n-1) across up to GOMAXPROCS goroutines and
// waits for all of them.
func parallelDo(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// LoadDir parses and type-checks every .go file directly inside dir as
// a single package unit. It is how linttest loads testdata fixture
// packages, which live outside the module's package graph; their
// imports resolve to export data listed by one `go list -export` of
// exactly the paths they import.
func LoadDir(dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var imports []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err == nil && !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	exports := make(map[string]string)
	if len(imports) > 0 {
		listed, err := goList(dir, append([]string{"-export", "--"}, imports...)...)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return check(fset, importer.ForCompiler(fset, "gc", exportLookup(exports, nil)), importPath, files)
}

// parseDir parses every .go file directly inside dir, in name order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir) // sorted by filename
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return parseFiles(fset, dir, names)
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one unit and returns its first type error, if any.
func check(fset *token.FileSet, imp types.Importer, importPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// goList runs `go list -json` with args in dir and decodes its output.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}
