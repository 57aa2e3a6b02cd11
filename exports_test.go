package gridmtd_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the internal exports that no program reaches but that
// stay in the production tree on purpose: tests in other packages use
// them, and Go cannot share a test-only helper across packages. Each
// reason names the tests that still need the export; an entry that
// gains a non-test user, or whose name is no longer declared, fails the
// guard.
var keptExports = map[string]string{
	"mat.VecEqual":                     "the attack, dcflow, grid, lp and opf tests compare vectors with it",
	"opf.DispatchSession.BuildProblem": "the root package's BenchmarkDispatchBuild118 times the dispatch-LP build through it",
	"core.GammaBasisBuilds":            "the root package's cold-selection solve budgets (coldSelect) check that no γ basis is built",
	"lp.RevisedSolver.SetPricing":      "opf's pricingAgreeCase and TestPricingInfeasibleCertificateIEEE300 compare pricing rules on the dispatch LP",
	"lp.RevisedSolver.SetMaxUpdates":   "opf's etaVsRefactorCase forces refactorizations on the dispatch LP",
	"lp.RevisedSolver.Stats":           "opf's warm-start, eta and pricing tests read one session's solver counters",
}

// TestNoUnusedInternalExports type-checks every package of the module
// from its non-test files and fails on any declaration under internal/
// that no non-test file reaches: an exported package-level func, type,
// const or var, or a method with an exported name, interface methods
// included. A concrete method counts as reached when it implements a
// reached interface method; String and Error always count, because fmt
// and errors call them. Such a declaration is test-only code: move it
// into an in-package _test.go file or delete it with its tests.
func TestNoUnusedInternalExports(t *testing.T) {
	m := loadModule(t)

	used := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		used[origin(obj)] = true
	}
	for _, sel := range m.info.Selections {
		used[origin(sel.Obj())] = true
	}
	var ifaceMethods []*types.Func
	for obj := range used {
		if f, ok := obj.(*types.Func); ok && isInterfaceMethod(f) {
			ifaceMethods = append(ifaceMethods, f)
		}
	}
	reached := func(obj types.Object, recv types.Type) bool {
		if used[obj] {
			return true
		}
		if recv == nil || types.IsInterface(recv) {
			return false
		}
		if obj.Name() == "String" || obj.Name() == "Error" {
			return true
		}
		for _, im := range ifaceMethods {
			if im.Name() != obj.Name() {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	var unused []string
	seen := map[string]bool{}
	check := func(key string, obj types.Object, recv types.Type) {
		seen[key] = true
		switch r := reached(obj, recv); {
		case !r && keptExports[key] == "":
			unused = append(unused, key+" ("+m.fset.Position(obj.Pos()).String()+")")
		case r && keptExports[key] != "":
			t.Errorf("keptExports names %s, which a non-test file now reaches", key)
		}
	}
	for _, pkg := range m.internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				check(pkg.Name()+"."+name, obj, nil)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					check(pkg.Name()+"."+name+"."+fn.Name(), fn, named)
				}
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if fn := iface.ExplicitMethod(i); fn.Exported() {
						check(pkg.Name()+"."+name+"."+fn.Name(), fn, named)
					}
				}
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but used only by tests: %s", u)
	}
	for k := range keptExports {
		if !seen[k] {
			t.Errorf("keptExports names %s, which is no longer declared", k)
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// generic declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isInterfaceMethod(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// module holds the module's packages, type-checked from their non-test
// files, with the uses and selections of all of them in one types.Info.
type module struct {
	fset     *token.FileSet
	std      types.Importer
	dirs     map[string]string // import path -> directory
	pkgs     map[string]*types.Package
	info     *types.Info
	internal []*types.Package
}

const modulePath = "gridmtd"

func loadModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		if len(bp.GoFiles) > 0 {
			m.dirs[importPath(path)] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pkg, err := m.Import(p)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(p, modulePath+"/internal/") {
			m.internal = append(m.internal, pkg)
		}
	}
	return m
}

func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

// Import type-checks a module package, and the module packages it
// imports, on first use; it hands standard-library paths to the source
// importer.
func (m *module) Import(path string) (*types.Package, error) {
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	if pkg := m.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	m.pkgs[path] = pkg
	return pkg, nil
}
