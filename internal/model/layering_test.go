package model_test

// The registry is the one place that decides what a communication model
// means. Everything the rest of the module needs to know about a model —
// its fibration class, graph class, slot layout, vector form, input
// domain — is a Descriptor field, so code outside this package reads the
// descriptor instead of comparing Kinds. This test checks that on the
// syntax trees of every non-test file in the module.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// kindComparisonAllowed lists the files (module-relative, slash-separated)
// and, when not "*", the one function in them that may still compare
// against a Kind constant:
//   - core/tables.go transcribes the paper's Tables 1 and 2, which are
//     indexed by model;
//   - core/dispatch.go picks the algorithm realizing a cell (algorithms
//     cannot register in model without an import cycle).
//
// core/tables.go also picks the one-bit model's Table 2 verification
// schedule, a property of the parity-flood algorithm, not the model.
var kindComparisonAllowed = map[string]string{
	"internal/core/tables.go":   "*",
	"internal/core/dispatch.go": "*",
}

func TestLayeringKindComparisons(t *testing.T) {
	kinds := kindConstants(t)
	if len(kinds) < 5 {
		t.Fatalf("found %d Kind constants in package model, want at least 5: %v", len(kinds), kinds)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	scanned := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "internal/model" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && rel != "." {
				return filepath.SkipDir // a nested module is not part of this one
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		scanned++
		allowedFunc, listed := kindComparisonAllowed[rel]
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			if listed && (allowedFunc == "*" || allowedFunc == fn) {
				continue
			}
			for _, pos := range kindComparisons(decl, kinds) {
				t.Errorf("%s compares against a model.Kind constant; read the model's Descriptor instead", fset.Position(pos))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files; the walk no longer covers the module", scanned)
	}
}

// kindComparisons returns the positions in n where a Kind constant of
// package model is an operand of == or != or a switch case label.
func kindComparisons(n ast.Node, kinds map[string]bool) []token.Pos {
	isKind := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "model" && kinds[sel.Sel.Name]
	}
	var out []token.Pos
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) && (isKind(n.X) || isKind(n.Y)) {
				out = append(out, n.Pos())
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if isKind(e) {
					out = append(out, e.Pos())
				}
			}
		}
		return true
	})
	return out
}

// kindConstants collects the names of package model's constants of type
// Kind, following iota continuation lines within a const block.
func kindConstants(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	kinds := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			inKind := false
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				switch {
				case vs.Type != nil:
					id, ok := vs.Type.(*ast.Ident)
					inKind = ok && id.Name == "Kind"
				case len(vs.Values) > 0:
					inKind = false
				}
				if inKind {
					for _, id := range vs.Names {
						kinds[id.Name] = true
					}
				}
			}
		}
	}
	return kinds
}
