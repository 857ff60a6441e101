package grbac_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyOptions are the exported options under internal/ that no
// non-test code calls, each kept for the tests its DESIGN.md §16 row
// names. The value is quoted from that row and must appear in §16
// verbatim.
var testOnlyOptions = map[string]string{
	"internal/replica.WithBackoff": "| `replica.WithBackoff` | `replica.WithBackoff(min, max)`; a test seam |",
}

// TestGuardInternalOptionsHaveCallers is guard 16. Nothing outside this
// module can import internal/, so an exported With… option there that only
// tests set is a knob no deployment can turn: every such option must have
// a caller in non-test Go somewhere in the repository (bench/ and
// examples/ included) or an entry in testOnlyOptions.
func TestGuardInternalOptionsHaveCallers(t *testing.T) {
	const module = "github.com/aware-home/grbac/"
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "internal/pkg.WithX" → declaration
	called := map[string]bool{}
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
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name → "internal/pkg"
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(ip, module)
			if !ok || !strings.HasPrefix(rel, "internal/") {
				continue
			}
			name := path.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, ok := imports[x.Name]; ok {
						called[rel+"."+n.Sel.Name] = true
					}
				}
				ast.Inspect(n.X, visit) // n.Sel names a field or method, not a local func
				return false
			case *ast.Ident:
				called[dir+"."+n.Name] = true
			}
			return true
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(decl, visit)
				continue
			}
			if fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "With") && strings.HasPrefix(dir, "internal/") {
				declared[dir+"."+fd.Name.Name] = fset.Position(fd.Pos())
			}
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no With… options under internal/: is the test running from the repository root?")
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	ledger, ok := section(string(design), "## 16.")
	if !ok {
		t.Fatal("DESIGN.md has no §16")
	}
	for opt, row := range testOnlyOptions {
		_, ok := declared[opt]
		switch {
		case !ok:
			t.Errorf("%s is on the test-only list but no longer declared: drop it from the list", opt)
		case called[opt]:
			t.Errorf("%s is on the test-only list but has a non-test caller now: drop it from the list", opt)
		case !strings.Contains(ledger, row):
			t.Errorf("%s: DESIGN.md §16 has no row %q", opt, row)
		}
	}
	var offenders []string
	for opt, pos := range declared {
		if _, ok := testOnlyOptions[opt]; !ok && !called[opt] {
			offenders = append(offenders, pos.String()+": "+opt)
		}
	}
	sort.Strings(offenders)
	if len(offenders) > 0 {
		t.Fatalf("%d of %d internal options have no caller in non-test Go; delete each, "+
			"or give it a DESIGN.md §16 row and a testOnlyOptions entry:\n\t%s",
			len(offenders), len(declared), strings.Join(offenders, "\n\t"))
	}
}

// section returns the part of a markdown document from the heading that
// starts with prefix to the next heading of the same level.
func section(doc, prefix string) (string, bool) {
	start := strings.Index(doc, "\n"+prefix)
	if start < 0 {
		return "", false
	}
	rest := doc[start+1:]
	if end := strings.Index(rest[len(prefix):], "\n## "); end >= 0 {
		return rest[:len(prefix)+end], true
	}
	return rest, true
}
