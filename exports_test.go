package braid

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

// testOnlyExportsAllowed names the exported funcs and methods (as Func or
// Type.Method) that no non-test Go file names outside their declaration and
// that stay anyway, each with its reason.
var testOnlyExportsAllowed = map[string]string{
	"Answers.All":    "README API",
	"MustParseKB":    "README API",
	"WithCacheBytes": "README API",
	"WithCosts":      "README API",
	"WithFeature":    "README API",

	"Relation.EqualAsBag": "tests in most packages compare answers as bags with it",
	"Relation.EqualAsSet": "tests in most packages compare answers as sets with it",
	"Solutions.All":       "drains an ask in the tests of ie, core and chaos",
	"MatchOneWay":         "core's TestWorkloadsStrategiesComparatorsAgree reads answers off derived facts with it",
	"KB.Preds":            "the tests of core, ie and workload enumerate a KB's clauses with it",
	"Tracker.Walks":       "cache's TestEvictionWalksOncePerSession counts a sweep's walks with it",
	"FaultClient.SetDown": "cache's degraded-mode tests take the remote down with it",
	"FaultClient.Counts":  "chaos's soak checks every fault class fired with it",

	"SourceStats.DispatchConserved": "the conservation invariant (INVARIANTS.md) the tests of cache, core and chaos check",
	"Engine.SetParallelMinRows":     "chaos's stream storm forces the parallel path on a small table with it",
	"Engine.SetMorselSize":          "chaos's stream storm splits a small table into many morsels with it",
}

// interfaceMethods are the method names a standard library interface calls,
// on any type.
var interfaceMethods = map[string]string{
	"Pop":    "heap.Interface",
	"Unwrap": "errors.Unwrap",
}

// TestNoTestOnlyExports holds production code to what production runs. Every
// exported func and method declared outside bench/ and _test.go files must be
// named by some non-test Go file of the tree (bench/ included) other than at
// a declaration of that name. A name only tests call belongs in the _test.go
// file that uses it. The check is by name, as a search of the tree would be:
// a method passes when any non-test identifier shares its name.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ name, pos string }
	var exported []decl
	uses := map[string]int{}    // identifiers in non-test files, by name
	defined := map[string]int{} // func and method declarations, by name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inBench := strings.HasPrefix(filepath.ToSlash(p), "bench/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name]++
			case *ast.FuncDecl:
				defined[n.Name.Name]++
				if n.Name.IsExported() && !inBench {
					exported = append(exported, decl{funcName(n), fset.Position(n.Pos()).String()})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, d := range exported {
		short := d.name[strings.LastIndex(d.name, ".")+1:]
		if uses[short] > defined[short] {
			continue
		}
		if _, ok := testOnlyExportsAllowed[d.name]; ok {
			continue
		}
		if _, ok := interfaceMethods[short]; ok && short != d.name {
			continue
		}
		bad = append(bad, d.pos+": "+d.name)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s is named by no non-test file: move it into the test that uses it, or delete it", b)
	}
}

// funcName is a func's name, or a method's as Type.Method.
func funcName(f *ast.FuncDecl) string {
	if f.Recv == nil || len(f.Recv.List) == 0 {
		return f.Name.Name
	}
	typ := f.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
			continue
		case *ast.IndexExpr:
			typ = x.X
			continue
		case *ast.IndexListExpr:
			typ = x.X
			continue
		}
		break
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + f.Name.Name
	}
	return f.Name.Name
}
