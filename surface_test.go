package allsatpre

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceOracles are exported internal functions and methods that no
// program code calls but that tests keep as reference implementations or
// fixtures. Each entry says who uses it; an entry that program code starts
// calling, or whose export is gone, fails the test so the list stays exact.
var surfaceOracles = map[string]string{
	"cnf.Formula.CountModels":        "brute-force model count, the reference for circuit, sat, simplify and tseitin tests",
	"cnf.Formula.Add":                "copying clause add, the fixture tests across packages build small formulas with",
	"core.EnumerateToResult":         "sequential success-driven run, the reference the pool tests compare worker counts against",
	"cnf.Formula.ProjectedModels":    "brute-force projected models, the reference for allsat, core, sat and simplify tests",
	"sat.NewDefault":                 "default-options solver, the fixture of the sat tests",
	"sat.Solver.NumClauses":          "clause count checked by the runtime and sat tests",
	"circuit.Circuit.IndexOf":        "signal lookup by name, the fixture of the circuit tests",
	"cube.Cube.Minterms":             "per-cube minterm count that bdd, cube and server tests total covers with",
	"simplify.Result.Eliminated":     "eliminated-variable query checked by preimage and simplify tests",
	"stats.Table.NumRows":            "table size checked by experiments and stats tests",
	"aig.Graph.Eval":                 "AIG evaluator, the reference for the aig tests and fuzzer",
	"bdd.Manager.Eval":               "BDD evaluation under an assignment, the reference for the bdd tests",
	"bdd.New":                        "natural-order manager, the fixture of the bdd tests",
	"cube.Cover.Equal":               "cover set equality, the reference of engine-agreement tests across packages",
	"partition.Subcube.Cube":         "subcube as a cube, the reference TestAssumptionsMatchCube checks Assumptions against",
	"preimage.WitnessIterator.Stats": "search counters witness tests check lazy solving with",
}

// surfaceLoader type-checks the module's non-test packages (and the
// perfbench module, which imports them) from the parsed files, in
// dependency order, with one shared types.Info: a use in any package then
// resolves to the very object its declaring package defined. Standard
// library imports come from the source importer.
type surfaceLoader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> files
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
	err   error
}

func (l *surfaceLoader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := l.files[p]
	if !ok {
		pkg, err := l.std.Import(p)
		l.pkgs[p] = pkg
		return pkg, err
	}
	conf := types.Config{Importer: l, Error: func(err error) {
		if l.err == nil {
			l.err = err
		}
	}}
	pkg, _ := conf.Check(p, l.fset, files, l.info)
	l.pkgs[p] = pkg
	return pkg, nil
}

// TestNoUncalledInternalExports fails when an exported function or method
// under internal/ has no use in the program's non-test code: the module's
// packages, commands and examples, and the perfbench module. Matching is
// by object, after type checking, so a method is not kept alive by another
// type's method of the same name, nor a function by a recursive call. A
// method also counts as used when its type implements an interface that
// has it (fmt.Stringer, error, an engine interface): such calls happen
// through the interface, out of sight of a use search.
func TestNoUncalledInternalExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	fset := token.NewFileSet()
	l := &surfaceLoader{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("allsatpre", filepath.ToSlash(filepath.Dir(p)))
		l.files[ip] = append(l.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The module builds without cgo; keep the source importer from
	// running the cgo tool over the standard library.
	ctx := build.Default
	ctx.CgoEnabled = false
	saved := build.Default
	build.Default = ctx
	defer func() { build.Default = saved }()
	l.std = importer.ForCompiler(fset, "source", nil)

	paths := make([]string, 0, len(l.files))
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		l.Import(p)
	}
	if l.err != nil {
		t.Fatalf("type-checking the module: %v", l.err)
	}

	// Declarations: each function's body span, so a recursive call is
	// not a use.
	body := map[types.Object][2]token.Pos{}
	for _, files := range l.files {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					body[l.info.Defs[fd.Name]] = [2]token.Pos{fd.Body.Pos(), fd.Body.End()}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if span, ok := body[fn]; ok && span[0] <= id.Pos() && id.Pos() < span[1] {
			continue
		}
		used[fn] = true
	}
	ifaces := interfaces(l)

	var exports []*types.Func
	for _, p := range paths {
		if !strings.HasPrefix(p, "allsatpre/internal/") {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					exports = append(exports, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						exports = append(exports, m)
					}
				}
			}
		}
	}
	if len(exports) == 0 {
		t.Fatal("no internal exports found; is the test running from the module root?")
	}
	var uncalled []string
	oracles := map[string]bool{}
	for _, fn := range exports {
		if used[fn] || implementsUsed(fn, ifaces) {
			continue
		}
		key := exportKey(fn)
		if _, ok := surfaceOracles[key]; ok {
			oracles[key] = true
			continue
		}
		uncalled = append(uncalled, fset.Position(fn.Pos()).Filename+": "+key)
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("exported but uncalled outside tests: %s", u)
	}
	for key := range surfaceOracles {
		if !oracles[key] {
			t.Errorf("surfaceOracles lists %s, which is not an uncalled internal export", key)
		}
	}
}

// exportKey names a function "pkg.Func" and a method "pkg.Type.Method".
func exportKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		key += rt.(*types.Named).Obj().Name() + "."
	}
	return key + fn.Name()
}

// interfaces collects every non-empty interface type the program can
// call methods through: those its own code spells out and those the
// packages it imports declare, the standard library's included.
func interfaces(l *surfaceLoader) []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if p == nil || visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	return out
}

// implementsUsed reports whether fn is a method its receiver type needs to
// implement one of ifaces.
func implementsUsed(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == fn.Name()
		}
		if has && (types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it)) {
			return true
		}
	}
	return false
}
