package modeldata_test

// Every name the module declares is there because something runs it:
// an experiment, an example, the server or the benchmark. A declaration
// that only its own package's tests reach is surface nothing in the
// reproduction executes, and it goes rather than waiting for a caller.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"modeldata/internal/lint"
)

// declKey names a package-level declaration across type-checking
// units: a package with in-package tests is checked once as its test
// variant, and every unit that imports it sees its own copy of its
// objects, so identity cannot be compared across units.
type declKey struct{ pkg, recv, name string }

func (k declKey) String() string {
	if k.recv != "" {
		return fmt.Sprintf("%s.%s.%s", k.pkg, k.recv, k.name)
	}
	return k.pkg + "." + k.name
}

// keyOf returns the key of a package-level object or of a method on a
// named type, and false for anything else (locals, fields, universe
// and interface methods).
func keyOf(obj types.Object) (declKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return declKey{}, false
	}
	pkg, _, _ := strings.Cut(obj.Pkg().Path(), " ")
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(named) {
				return declKey{}, false
			}
			return declKey{pkg, named.Origin().Obj().Name(), fn.Name()}, true
		}
		return declKey{pkg, "", fn.Name()}, true
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return declKey{}, false
	}
	switch obj.(type) {
	case *types.TypeName, *types.Var, *types.Const:
		return declKey{pkg, "", obj.Name()}, true
	}
	return declKey{}, false
}

// shape is a method's name and signature with parameter names left
// out, so an implementation that names its parameters differently
// from the interface it satisfies still matches it.
func shape(name string, sig *types.Signature) string {
	var b strings.Builder
	b.WriteString(name)
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// decl is one declaration the rule judges.
type decl struct {
	pos      token.Position
	exported bool
	method   string // shape, for a method on a concrete type
}

// span is a stretch of one source file, in byte offsets.
type span struct {
	file       string
	start, end int
}

// selfSpans maps each declaration of pkgs to the source that belongs to
// it: a func's or method's whole declaration, and for a type also the
// declarations of its methods, receivers and bodies. A reference from
// inside one of these is the declaration using itself, not a caller.
func selfSpans(pkgs []*lint.Package) map[declKey][]span {
	out := map[declKey][]span{}
	add := func(p *lint.Package, k declKey, n ast.Node) {
		from, to := p.Fset.Position(n.Pos()), p.Fset.Position(n.End())
		out[k] = append(out[k], span{from.Filename, from.Offset, to.Offset})
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					k, ok := keyOf(p.Info.Defs[d.Name])
					if !ok {
						continue
					}
					add(p, k, d)
					if k.recv != "" {
						add(p, declKey{k.pkg, "", k.recv}, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							if k, ok := keyOf(p.Info.Defs[ts.Name]); ok {
								add(p, k, ts)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// within reports whether pos lies inside one of spans.
func within(pos token.Position, spans []span) bool {
	for _, s := range spans {
		if pos.Filename == s.file && s.start <= pos.Offset && pos.Offset < s.end {
			return true
		}
	}
	return false
}

// uncalled applies the rule to pkgs, the module rooted at the absolute
// path root: a
// package-level func, type, var or const, or a method on a concrete
// type, declared in a non-test file, must be referred to by non-test
// code somewhere in the module, or — if exported — by a _test.go file
// in another directory. Exempt are methods whose name and signature
// match a method of an interface some unit mentions or imports (or of
// error, fmt.Stringer, or the Unwrap the errors package looks for), the
// exported names of the root package, which are the module's public
// API, and everything under bench/. A reference from inside the
// declaration itself (selfSpans) is not a caller.
func uncalled(pkgs []*lint.Package, root string) []string {
	sep := string(filepath.Separator)
	bench := filepath.Join(root, "bench") + sep
	decls := map[declKey]decl{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Defs {
			k, ok := keyOf(obj)
			if !ok || id.Name == "_" || (k.recv == "" && (k.name == "init" || k.name == "main")) {
				continue
			}
			pos := p.Fset.Position(id.Pos())
			dir := filepath.Dir(pos.Filename)
			if strings.HasSuffix(pos.Filename, "_test.go") || strings.HasPrefix(dir+sep, bench) || (dir == root && obj.Exported()) {
				continue
			}
			d := decl{pos: pos, exported: obj.Exported()}
			if k.recv != "" {
				d.method = shape(k.name, obj.Type().(*types.Signature))
			}
			decls[k] = d
		}
	}

	ifaces := map[string]bool{"Error()(string)": true, "String()(string)": true, "Unwrap()(error)": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				ifaces[shape(m.Name(), m.Type().(*types.Signature))] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	self := selfSpans(pkgs)
	called := map[declKey]bool{}
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			addIface(tv.Type)
		}
		for id, obj := range p.Info.Uses {
			k, _ := keyOf(obj)
			d, declared := decls[k]
			if !declared {
				continue
			}
			pos := p.Fset.Position(id.Pos())
			if within(pos, self[k]) {
				continue
			}
			file := pos.Filename
			if !strings.HasSuffix(file, "_test.go") || (d.exported && filepath.Dir(file) != filepath.Dir(d.pos.Filename)) {
				called[k] = true
			}
		}
	}

	var out []string
	for k, d := range decls {
		if called[k] || (d.method != "" && ifaces[d.method]) {
			continue
		}
		rel, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			rel = d.pos.Filename
		}
		out = append(out, fmt.Sprintf("%s:%d: %s", rel, d.pos.Line, k))
	}
	sort.Strings(out)
	return out
}

func TestEveryNameHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("the scan type-checks the whole module; skipped in -short mode")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range uncalled(loadModule(t), root) {
		t.Errorf("%s: nothing outside its own package's tests refers to it; delete it, or give it the caller it is for", f)
	}
}

// TestUncalledFindsDeadNames plants, in a module of its own, a dead
// exported func, an exported func only its own package's tests call, a
// func another package's test calls (a test seam), a method that
// satisfies an interface declared in another package, a type whose only
// referrer is such a method of its own, and a func only its own body
// calls: all but the seam and the method are reported.
func TestUncalledFindsDeadNames(t *testing.T) {
	if testing.Short() {
		t.Skip("the scan runs the go command over a fixture module; skipped in -short mode")
	}
	root := t.TempDir()
	for path, src := range map[string]string{
		"go.mod":      "module fixture\n\ngo 1.22\n",
		"main.go":     "package main\n\nimport (\n\t\"fixture/a\"\n\t\"fixture/c\"\n)\n\nfunc main() { c.Print(a.T{}) }\n",
		"a/a.go":      "package a\n\nfunc Dead() {}\n\nfunc OwnTests() {}\n\nfunc Seam() {}\n\ntype T struct{}\n\nfunc (T) Name() string { return \"t\" }\n\ntype Self struct{}\n\nfunc (Self) Name() string { return \"self\" }\n\nfunc Rec(n int) int {\n\tif n > 0 {\n\t\treturn Rec(n - 1)\n\t}\n\treturn 0\n}\n",
		"a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestOwn(t *testing.T) { OwnTests() }\n",
		"b/b.go":      "package b\n",
		"b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"fixture/a\"\n)\n\nfunc TestSeam(t *testing.T) { a.Seam() }\n",
		"c/c.go":      "package c\n\ntype Namer interface{ Name() string }\n\nfunc Print(n Namer) { println(n.Name()) }\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	got := uncalled(pkgs, root)
	want := []string{
		filepath.Join("a", "a.go") + ":13: fixture/a.Self",
		filepath.Join("a", "a.go") + ":17: fixture/a.Rec",
		filepath.Join("a", "a.go") + ":3: fixture/a.Dead",
		filepath.Join("a", "a.go") + ":5: fixture/a.OwnTests",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
