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
	Dir           string
	ImportPath    string
	GoFiles       []string
	CgoFiles      []string
	TestGoFiles   []string
	XTestGoFiles  []string
	Imports       []string
	Standard      bool
	Incomplete    bool
	DepOnly       bool
	ForTest       string
	Match         []string
	IgnoredGoFile []string
}

// Load enumerates the packages matching patterns with `go list` run in
// dir, then parses and type-checks each from source. Dependencies —
// including the standard library — are type-checked from source on
// demand by the importer, so no compiled export data and no external
// module is required. Type errors in dependencies are tolerated
// (analysis proceeds on partial information); the repository itself is
// kept compiling by the build job, so its own units check cleanly.
//
// Checking is parallel, keyed by the import graph: the listed packages'
// export-facing halves (GoFiles only) are checked wave by wave in
// topological order, each wave fanning out across GOMAXPROCS workers
// and registering its results with a shared importer; the test-carrying
// units then check fully parallel, importing the already-checked
// results instead of re-checking dependencies from source. The standard
// library still goes through one mutex-serialized source importer —
// srcimporter is not concurrency-safe — but each stdlib package is
// checked at most once per Load, and the module's own units (the bulk
// of the parse+check work after warmup) no longer serialize.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var mod []listedPackage
	for _, lp := range listed {
		if lp.Standard || len(lp.CgoFiles) > 0 {
			continue
		}
		mod = append(mod, lp)
	}

	fset := token.NewFileSet()
	shared := newSharedImporter(fset)

	// Phase 1: check each package's GoFiles-only unit in dependency
	// order so later waves import checked results, not source. The
	// checked *types.Package doubles as the returned unit when the
	// package has no in-package test files.
	pure := make(map[string]*Package, len(mod))
	var pureMu sync.Mutex
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for _, wave := range topoWaves(mod) {
		parallelDo(len(wave), func(i int) {
			lp := wave[i]
			if len(lp.GoFiles) == 0 {
				return
			}
			files, err := parseFiles(fset, lp.Dir, lp.GoFiles)
			if err != nil {
				fail(fmt.Errorf("%s: %w", lp.ImportPath, err))
				return
			}
			pkg := check(fset, shared, lp.ImportPath, files)
			pureMu.Lock()
			pure[lp.ImportPath] = pkg
			pureMu.Unlock()
			if pkg.Types != nil {
				shared.register(lp.ImportPath, pkg.Types)
			}
		})
		if firstErr != nil {
			return nil, firstErr
		}
	}

	// Phase 2: build the returned units. Packages with in-package
	// test files re-check GoFiles+TestGoFiles as one unit (the test
	// files see unexported names, so the halves cannot be checked
	// separately); external _test packages are their own unit. Every
	// in-module import resolves through the phase-1 results, so this
	// phase has no ordering constraints and runs fully parallel.
	units := make([][]*Package, len(mod))
	parallelDo(len(mod), func(i int) {
		lp := mod[i]
		var out []*Package
		if len(lp.TestGoFiles) > 0 {
			names := append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)
			files, err := parseFiles(fset, lp.Dir, names)
			if err != nil {
				fail(fmt.Errorf("%s: %w", lp.ImportPath, err))
				return
			}
			out = append(out, check(fset, shared, lp.ImportPath, files))
		} else if p := pure[lp.ImportPath]; p != nil {
			out = append(out, p)
		}
		if len(lp.XTestGoFiles) > 0 {
			files, err := parseFiles(fset, lp.Dir, lp.XTestGoFiles)
			if err != nil {
				fail(fmt.Errorf("%s_test: %w", lp.ImportPath, err))
				return
			}
			out = append(out, check(fset, shared, lp.ImportPath+"_test", files))
		}
		units[i] = out
	})
	if firstErr != nil {
		return nil, firstErr
	}

	var pkgs []*Package
	for _, u := range units {
		pkgs = append(pkgs, u...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// topoWaves groups the module's packages into dependency waves: every
// package's in-module imports live in strictly earlier waves. An import
// cycle cannot occur in compiling Go code; if the list is somehow
// cyclic anyway, the remainder becomes one final wave and the importer
// falls back to checking those from source.
func topoWaves(mod []listedPackage) [][]listedPackage {
	inMod := make(map[string]bool, len(mod))
	for _, lp := range mod {
		inMod[lp.ImportPath] = true
	}
	deps := make(map[string][]string, len(mod))
	for _, lp := range mod {
		for _, imp := range lp.Imports {
			if inMod[imp] {
				deps[lp.ImportPath] = append(deps[lp.ImportPath], imp)
			}
		}
	}
	placed := make(map[string]bool, len(mod))
	rest := append([]listedPackage{}, mod...)
	var waves [][]listedPackage
	for len(rest) > 0 {
		var wave, next []listedPackage
		for _, lp := range rest {
			ready := true
			for _, d := range deps[lp.ImportPath] {
				if !placed[d] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, lp)
			} else {
				next = append(next, lp)
			}
		}
		if len(wave) == 0 {
			waves = append(waves, next) // cycle: check the rest as one wave
			break
		}
		for _, lp := range wave {
			placed[lp.ImportPath] = true
		}
		waves = append(waves, wave)
		rest = next
	}
	return waves
}

// parallelDo runs f(0..n-1) across up to GOMAXPROCS goroutines and
// waits for all of them.
func parallelDo(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
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

// sharedImporter resolves the module's own import paths from the
// phase-1 checked results and everything else (the standard library)
// through one mutex-serialized source importer. go/types calls
// ImportFrom from as many goroutines as there are units being checked;
// the registry is read-locked and srcimporter — which is not safe for
// concurrent use — is fully serialized, each stdlib package checked at
// most once and cached inside the importer.
type sharedImporter struct {
	mu sync.RWMutex
	// bounded by the module's package graph: at most one entry per
	// import path the load ever touches
	checked map[string]*types.Package // guarded by mu

	srcMu sync.Mutex
	src   types.ImporterFrom
}

func newSharedImporter(fset *token.FileSet) *sharedImporter {
	return &sharedImporter{
		checked: make(map[string]*types.Package),
		src:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

func (si *sharedImporter) register(path string, pkg *types.Package) {
	si.mu.Lock()
	si.checked[path] = pkg
	si.mu.Unlock()
}

func (si *sharedImporter) Import(path string) (*types.Package, error) {
	return si.ImportFrom(path, "", 0)
}

func (si *sharedImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	si.mu.RLock()
	pkg := si.checked[path]
	si.mu.RUnlock()
	if pkg != nil {
		return pkg, nil
	}
	si.srcMu.Lock()
	defer si.srcMu.Unlock()
	return si.src.ImportFrom(path, srcDir, mode)
}

// dirFset and dirImporter are shared across every LoadDir call in the
// process so fixture loads amortize standard-library source checking:
// the first fixture importing net/http pays for it, the rest hit the
// importer's cache.
var (
	dirOnce     sync.Once
	dirFset     *token.FileSet
	dirImporter *sharedImporter
)

// LoadDir parses and type-checks every .go file directly inside dir as
// a single package unit. It is how linttest loads testdata fixture
// packages, which live outside the module's package graph. Imports of
// the form "modeldatalint.test/<name>" resolve to the sibling directory
// <dir>/../<name>, so a fixture can depend on a stub of a module
// package (e.g. a miniature obs) the way analysistest fixtures use
// their testdata GOPATH.
func LoadDir(dir, importPath string) (*Package, error) {
	dirOnce.Do(func() {
		dirFset = token.NewFileSet()
		dirImporter = newSharedImporter(dirFset)
	})
	files, err := parseDir(dirFset, dir)
	if err != nil {
		return nil, err
	}
	imp := &fixtureImporter{
		root:     filepath.Dir(dir),
		fallback: dirImporter,
		loaded:   make(map[string]*types.Package),
	}
	return check(dirFset, imp, importPath, files), nil
}

// fixtureImporter resolves "modeldatalint.test/<name>" imports to
// sibling fixture directories under the same testdata/src root,
// delegating everything else to the shared source importer.
type fixtureImporter struct {
	root     string
	fallback types.ImporterFrom
	loaded   map[string]*types.Package
}

const fixturePrefix = "modeldatalint.test/"

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	return fi.ImportFrom(path, "", 0)
}

func (fi *fixtureImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if !strings.HasPrefix(path, fixturePrefix) {
		return fi.fallback.ImportFrom(path, srcDir, mode)
	}
	if pkg := fi.loaded[path]; pkg != nil {
		return pkg, nil
	}
	dir := filepath.Join(fi.root, strings.TrimPrefix(path, fixturePrefix))
	files, err := parseDir(dirFset, dir)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture import %q: %w", path, err)
	}
	pkg := check(dirFset, fi, path, files)
	if pkg.Types == nil {
		return nil, fmt.Errorf("lint: fixture import %q did not check", path)
	}
	fi.loaded[path] = pkg.Types
	return pkg.Types, nil
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

// check type-checks one unit, tolerating errors: go/types keeps
// recording partial type information after an error, which is enough
// for every analyzer in this suite, and missing information only makes
// analyzers quieter, never wrong.
func check(fset *token.FileSet, imp types.Importer, importPath string, files []*ast.File) *Package {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error:       func(error) {},
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
}

func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
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
