package braid

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	codeSpan      = regexp.MustCompile("`([^`]+)`")
	fence         = regexp.MustCompile("(?ms)^```.*?^```")
	docPath       = regexp.MustCompile(`^[\w./-]+\.(go|md|json)$`)
	goIdent       = `[A-Za-z_][A-Za-z0-9_]*`
	goChain       = regexp.MustCompile(`^` + goIdent + `(\.` + goIdent + `)*$`)
	goMethod      = regexp.MustCompile(`^(?:(` + goIdent + `)\.)?\(\*(` + goIdent + `)\)\.(` + goIdent + `)$`)
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
	designRef     = regexp.MustCompile(`DESIGN\.md(?:\s|//)+((?:§|Section )\d+(?:(?:, |–|-| and )§\d+)*)`)
	number        = regexp.MustCompile(`\d+`)
)

// TestDocNamesExist holds what the documents cite to the tree. In DESIGN.md,
// README.md, EXPERIMENTS.md and INVARIANTS.md (whose table names the tests
// that hold each invariant), every code span that reads as a Go name
// (X, pkg.X, (*T).M, X()) must be a string some Go file spells, or each of
// its parts must be declared: in a .go file of the tree (tests and the bench
// module included), as a Go builtin, as a name in BENCHMARK.json, or, after
// a standard library package, in that package. Every code span that is a
// .go, .md or .json path must be a file of the tree. Every "DESIGN.md §N" in
// README.md, EXPERIMENTS.md or Go source must name a numbered section of
// DESIGN.md.
func TestDocNamesExist(t *testing.T) {
	tr := parseTree(t)
	for _, n := range types.Universe.Names() {
		tr.names[n] = true
	}
	for _, n := range benchNames(t) {
		tr.names[n] = true
	}
	std := stdNames{}

	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "INVARIANTS.md"} {
		text := fence.ReplaceAllStringFunc(readDoc(t, doc), func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n"))
		})
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			span := text[m[2]:m[3]]
			line := 1 + strings.Count(text[:m[0]], "\n")
			if docPath.MatchString(span) {
				if !tr.hasFile(span) {
					t.Errorf("%s:%d: `%s` names no file in the tree", doc, line, span)
				}
			} else if parts := nameParts(span); parts != nil && !tr.resolves(span, parts, std) {
				t.Errorf("%s:%d: `%s` names nothing declared in the tree", doc, line, span)
			}
		}
	}

	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		sections[m[1]] = true
	}
	for _, src := range append(tr.goFiles, "README.md", "EXPERIMENTS.md") {
		for _, m := range designRef.FindAllStringSubmatch(readDoc(t, src), -1) {
			for _, n := range number.FindAllString(m[1], -1) {
				if !sections[n] {
					t.Errorf("%s: %q cites a DESIGN.md section %s, which does not exist", src, m[0], n)
				}
			}
		}
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// nameParts splits a code span that reads as a Go name into its parts, or
// returns nil.
func nameParts(span string) []string {
	span = strings.TrimSuffix(span, "()")
	if m := goMethod.FindStringSubmatch(span); m != nil {
		if m[1] == "" {
			return m[2:]
		}
		return m[1:]
	}
	if goChain.MatchString(span) {
		return strings.Split(span, ".")
	}
	return nil
}

// tree is what the repository's Go files declare and spell, and its files.
type tree struct {
	names   map[string]bool // declared names
	lits    map[string]bool // string literals
	files   []string        // every file, by slash path from the root
	goFiles []string
}

// parseTree parses every .go file under the root, skipping dot directories.
func parseTree(t *testing.T) *tree {
	t.Helper()
	tr := &tree{names: map[string]bool{}, lits: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		tr.files = append(tr.files, filepath.ToSlash(p))
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		tr.goFiles = append(tr.goFiles, p)
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		addDecls(f, tr.names, tr.lits)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// hasFile reports whether p is a file of the tree: its path from the root,
// or a trailing part of that path such as its base name.
func (tr *tree) hasFile(p string) bool {
	for _, f := range tr.files {
		if f == p || strings.HasSuffix(f, "/"+p) {
			return true
		}
	}
	return false
}

// resolves reports whether a name is a string the tree spells, or whether
// each of its parts is declared in the tree or, after a standard library
// package, in that package.
func (tr *tree) resolves(span string, parts []string, std stdNames) bool {
	if tr.lits[span] {
		return true
	}
	declared := func(pkg map[string]bool) bool {
		for _, p := range parts[1:] {
			if !tr.names[p] && !pkg[p] {
				return false
			}
		}
		return true
	}
	if tr.names[parts[0]] && declared(nil) {
		return true
	}
	pkg := std.decls(parts[0])
	return pkg != nil && declared(pkg)
}

// addDecls adds the package name and every name f declares (funcs, methods,
// types, fields, parameters, consts and vars) to names, and, when lits is
// not nil, every string literal to lits.
func addDecls(f *ast.File, names, lits map[string]bool) {
	names[f.Name.Name] = true
	add := func(ids ...*ast.Ident) {
		for _, id := range ids {
			names[id.Name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			add(n.Name)
		case *ast.TypeSpec:
			add(n.Name)
		case *ast.ValueSpec:
			add(n.Names...)
		case *ast.Field:
			add(n.Names...)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING && lits != nil {
				if s, err := strconv.Unquote(n.Value); err == nil {
					lits[s] = true
				}
			}
		}
		return true
	})
}

// benchNames returns the workload and metric names BENCHMARK.json declares.
func benchNames(t *testing.T) []string {
	t.Helper()
	type named []struct{ Name string }
	var spec struct {
		Workloads named
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readDoc(t, "BENCHMARK.json")), &spec); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, list := range []named{spec.Workloads, spec.EndToEnd, spec.PerLayer} {
		for _, w := range list {
			out = append(out, w.Name)
		}
	}
	return out
}

// stdNames finds standard library packages by name and memoizes the names
// each declares; nil means there is no such package.
type stdNames map[string]map[string]bool

func (s stdNames) decls(pkg string) map[string]bool {
	if d, ok := s[pkg]; ok {
		return d
	}
	var decls map[string]bool
	// A walk that fails leaves decls nil, and the span is reported.
	_ = filepath.WalkDir(filepath.Join(build.Default.GOROOT, "src"), func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || decls != nil {
			return nil
		}
		switch d.Name() {
		case "testdata", "vendor", "internal", "cmd":
			return filepath.SkipDir
		}
		if d.Name() != pkg {
			return nil
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), p, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if ap := pkgs[pkg]; err == nil && ap != nil {
			decls = map[string]bool{}
			for _, f := range ap.Files {
				addDecls(f, decls, nil)
			}
		}
		return nil
	})
	s[pkg] = decls
	return decls
}
