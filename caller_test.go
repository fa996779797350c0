package modeldata_test

// Every name the module declares is there because something runs it:
// an experiment, an example, the server or the benchmark. A declaration
// that only its own package's tests reach is surface nothing in the
// reproduction executes, and it goes rather than waiting for a caller.
// The same holds for a struct field: one that is written but never
// read is state carried for nobody.

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
		for _, obj := range p.Info.Defs { // any definition's package is the unit's
			if obj != nil {
				walk(obj.Pkg())
				break
			}
		}
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
		if !called[k] && (d.method == "" || !ifaces[d.method]) {
			out = append(out, finding(root, d.pos, k))
		}
	}
	sort.Strings(out)
	return out
}

// finding formats one report line, with the file relative to root.
func finding(root string, pos token.Position, k declKey) string {
	rel, err := filepath.Rel(root, pos.Filename)
	if err != nil {
		rel = pos.Filename
	}
	return fmt.Sprintf("%s:%d: %s", rel, pos.Line, k)
}

// fieldOf returns the key of the field a selection reads, naming it by
// the struct type that declares it: a promoted field is resolved along
// the selection's index path through the embedded fields. It returns
// false for a method, or for a field of a struct type with no name.
func fieldOf(sel *types.Selection) (declKey, bool) {
	if sel == nil || sel.Kind() != types.FieldVal {
		return declKey{}, false
	}
	var k declKey
	named := false
	t := sel.Recv()
	for _, i := range sel.Index() {
		t = types.Unalias(t)
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		var n *types.Named
		n, named = t.(*types.Named)
		f := t.Underlying().(*types.Struct).Field(i)
		if named {
			k = fieldKey(n, f)
		}
		t = f.Type()
	}
	return k, named
}

// fieldKey names field f of the named struct type n.
func fieldKey(n *types.Named, f *types.Var) declKey {
	pkg, _, _ := strings.Cut(f.Pkg().Path(), " ")
	return declKey{pkg, n.Origin().Obj().Name(), f.Name()}
}

// unread applies the rule to the fields of pkgs, the module rooted at
// the absolute path root: every named, untagged field of a struct type
// declared in a non-test file outside bench/ must be read by non-test
// code somewhere in the module, bench/ included. A selection of the
// field is a read unless it is the left side of an assignment or the
// operand of ++ or --; a composite-literal key is not a selection, so
// it never reads. A struct type compared with == or !=, used as a map
// key, or passed as the type argument of a comparable type parameter
// is read whole, and so are the structs it holds by value.
func unread(pkgs []*lint.Package, root string) []string {
	sep := string(filepath.Separator)
	bench := filepath.Join(root, "bench") + sep
	fields := map[declKey]token.Position{}
	read := map[declKey]bool{}
	var whole func(types.Type)
	whole = func(t types.Type) {
		if t == nil {
			return
		}
		t = types.Unalias(t)
		switch u := t.Underlying().(type) {
		case *types.Struct:
			n, named := t.(*types.Named)
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				if named {
					read[fieldKey(n, f)] = true
				}
				whole(f.Type())
			}
		case *types.Array:
			whole(u.Elem())
		}
	}
	for _, p := range pkgs {
		pkg, _, _ := strings.Cut(p.ImportPath, " ")
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			judged := !strings.HasPrefix(filepath.Dir(name)+sep, bench)
			writes := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok && judged {
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								if fld.Tag == nil && id.Name != "_" {
									fields[declKey{pkg, n.Name.Name, id.Name}] = p.Fset.Position(id.Pos())
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writes[ast.Unparen(lhs)] = true
					}
				case *ast.IncDecStmt:
					writes[ast.Unparen(n.X)] = true
				case *ast.SelectorExpr:
					if k, ok := fieldOf(p.Info.Selections[n]); ok && !writes[n] {
						read[k] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						whole(p.Info.TypeOf(n.X))
					}
				case *ast.MapType:
					whole(p.Info.TypeOf(n.Key))
				case *ast.Ident:
					inst, ok := p.Info.Instances[n]
					if !ok {
						break
					}
					var params *types.TypeParamList
					switch t := inst.Type.(type) {
					case *types.Named:
						params = t.Origin().TypeParams()
					case *types.Signature:
						params = p.Info.Uses[n].(*types.Func).Origin().Type().(*types.Signature).TypeParams()
					}
					for i := 0; i < params.Len(); i++ {
						if c, ok := params.At(i).Constraint().Underlying().(*types.Interface); ok && c.IsComparable() {
							whole(inst.TypeArgs.At(i))
						}
					}
				}
				return true
			})
		}
	}

	var out []string
	for k, pos := range fields {
		if !read[k] {
			out = append(out, finding(root, pos, k))
		}
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

func TestEveryFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("the scan type-checks the whole module; skipped in -short mode")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unread(loadModule(t), root) {
		t.Errorf("%s: no non-test code reads this field; delete it and what fills it, or give it the reader it is for", f)
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
	root := writeModule(t, map[string]string{
		"go.mod":      "module fixture\n\ngo 1.22\n",
		"main.go":     "package main\n\nimport (\n\t\"fixture/a\"\n\t\"fixture/c\"\n)\n\nfunc main() { c.Print(a.T{}) }\n",
		"a/a.go":      "package a\n\nfunc Dead() {}\n\nfunc OwnTests() {}\n\nfunc Seam() {}\n\ntype T struct{}\n\nfunc (T) Name() string { return \"t\" }\n\ntype Self struct{}\n\nfunc (Self) Name() string { return \"self\" }\n\nfunc Rec(n int) int {\n\tif n > 0 {\n\t\treturn Rec(n - 1)\n\t}\n\treturn 0\n}\n",
		"a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestOwn(t *testing.T) { OwnTests() }\n",
		"b/b.go":      "package b\n",
		"b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"fixture/a\"\n)\n\nfunc TestSeam(t *testing.T) { a.Seam() }\n",
		"c/c.go":      "package c\n\ntype Namer interface{ Name() string }\n\nfunc Print(n Namer) { println(n.Name()) }\n",
	})
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

// TestUnreadFindsDeadFields plants, in a module of its own, a field
// nothing reads, a field only written (by = and by ++), a field only its
// own package's tests read, a tagged field, a field read through an
// embedded struct, and fields of a map-key struct and of a struct
// compared with ==: only the first three are reported.
func TestUnreadFindsDeadFields(t *testing.T) {
	if testing.Short() {
		t.Skip("the scan runs the go command over a fixture module; skipped in -short mode")
	}
	root := writeModule(t, map[string]string{
		"go.mod":      "module fixture\n\ngo 1.22\n",
		"main.go":     "package main\n\nimport \"fixture/a\"\n\nfunc main() { println(a.Use(&a.T{}, a.Pair{}, a.Pair{})) }\n",
		"a/a.go":      "package a\n\ntype T struct {\n\tNever   int\n\tWritten int\n\tTested  int\n\tTagged  int `json:\"tagged\"`\n\tInner\n}\n\ntype Inner struct{ Deep int }\n\ntype key struct{ a, b int }\n\ntype Pair struct{ X, Y int }\n\nfunc Use(t *T, p, q Pair) int {\n\tt.Written = 1\n\tt.Written++\n\tseen := map[key]bool{{1, 2}: true}\n\tif p == q && seen[key{}] {\n\t\treturn t.Deep\n\t}\n\treturn 0\n}\n",
		"a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestTested(t *testing.T) { _ = (&T{}).Tested }\n",
	})
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	got := unread(pkgs, root)
	want := []string{
		filepath.Join("a", "a.go") + ":4: fixture/a.T.Never",
		filepath.Join("a", "a.go") + ":5: fixture/a.T.Written",
		filepath.Join("a", "a.go") + ":6: fixture/a.T.Tested",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// writeModule writes files, keyed by slash-separated path, under a new
// temporary directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, src := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}
