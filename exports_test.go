package gridmtd_test

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

// keptExports are the internal exports that no program calls but that
// stay in the production tree on purpose: tests in other packages use
// them, and Go cannot share a test-only helper across packages.
var keptExports = map[string]string{
	"mat.VecEqual":                     "the shared tolerance compare of tests in six packages",
	"opf.DispatchSession.BuildProblem": "lets lp tests solve the real dispatch LP",
	"core.GammaBasisBuilds":            "planner tests count γ-engine basis builds through it",
	"lp.RevisedSolver.SetPricing":      "opf tests compare pricing rules on the dispatch LP",
	"lp.RevisedSolver.SetMaxUpdates":   "opf tests force refactorizations on the dispatch LP",
}

// TestNoUnusedInternalExports fails on any exported function or method
// under internal/ whose name no non-test Go file of the repository uses
// outside its own declaration. Such a helper is test-only code: move it
// into an in-package _test.go file or delete it with its tests.
func TestNoUnusedInternalExports(t *testing.T) {
	type decl struct {
		key   string // pkg.Func or pkg.Type.Method
		ident *ast.Ident
	}
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdents[fd.Name] = true
			if !internal || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}

	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if uses[d.ident.Name] == 0 && keptExports[d.key] == "" {
			unused = append(unused, d.key+" ("+fset.Position(d.ident.Pos()).String()+")")
		}
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

// recvTypeName returns the type name of a method receiver expression.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}
