package allsatpre

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	"CountModels":     "cnf: brute-force model count, the reference for circuit, sat, simplify and tseitin tests",
	"ProjectedModels": "cnf: brute-force projected models, the reference for allsat, core, sat and simplify tests",
	"NewDefault":      "sat: default-options solver, the fixture of the sat tests",
	"NumClauses":      "sat: clause count checked by the runtime and sat tests",
	"IndexOf":         "circuit: signal lookup by name, the fixture of the circuit tests",
	"Minterms":        "cube: per-cube minterm count that bdd, cube and server tests total covers with",
	"Eliminated":      "simplify: eliminated-variable query checked by preimage and simplify tests",
	"NumRows":         "stats: table size checked by experiments and stats tests",
}

// TestNoUncalledInternalExports fails when an exported function or method
// under internal/ has no reference in the program's non-test code: the
// module's packages, commands and examples, and the perfbench module.
// Matching is by identifier name, so a name that any other code uses
// (through another type, an interface or a field) counts as referenced;
// the test only catches names nothing outside their own body mentions.
func TestNoUncalledInternalExports(t *testing.T) {
	fset := token.NewFileSet()
	refs := map[string]int{}
	type export struct {
		pos  token.Position
		decl *ast.FuncDecl
	}
	var exports []export
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				refs[id.Name]++
			}
			return true
		})
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// A declaration's own name is not a reference.
			refs[fd.Name.Name]--
			if internal && fd.Name.IsExported() {
				exports = append(exports, export{fset.Position(fd.Pos()), fd})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) == 0 {
		t.Fatal("no internal exports found; is the test running from the module root?")
	}
	var uncalled []string
	oracles := map[string]bool{}
	for _, e := range exports {
		name := e.decl.Name.Name
		self := 0
		if e.decl.Body != nil {
			ast.Inspect(e.decl.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == name {
					self++
				}
				return true
			})
		}
		if refs[name]-self > 0 {
			continue
		}
		if _, ok := surfaceOracles[name]; ok {
			oracles[name] = true
			continue
		}
		uncalled = append(uncalled, e.pos.Filename+": "+name)
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("exported but uncalled outside tests: %s", u)
	}
	for name := range surfaceOracles {
		if !oracles[name] {
			t.Errorf("surfaceOracles lists %s, which is not an uncalled internal export", name)
		}
	}
}
