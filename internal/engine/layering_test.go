package engine_test

// Layering rules of the engine package, checked on its syntax trees
// instead of promised in comments: core.go is the only non-test file that
// touches the graph machinery (internal/graph, internal/dynamic), and the
// only one that reaches a model descriptor's sending function (Plan) — the
// single dispatch site through which every registered model's σ enters
// the round pipeline.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// coreOnlyImports may be imported by core.go alone.
var coreOnlyImports = []string{"anonnet/internal/graph", "anonnet/internal/dynamic"}

func TestLayeringCoreOwnsGraphAndDispatch(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	planSites := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, banned := range coreOnlyImports {
				if path == banned && name != "core.go" {
					t.Errorf("%s imports %s; only core.go may", name, path)
				}
			}
		}
		// Any use of a .Plan selector counts, not just calls: passing the
		// sending function to a helper is a second dispatch site too.
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Plan" {
				if name != "core.go" {
					t.Errorf("%s uses a descriptor's Plan; only core.go may dispatch the sending function", fset.Position(sel.Pos()))
				}
				planSites++
			}
			return true
		})
	}
	if planSites == 0 {
		t.Error("no .Plan dispatch site found in core.go; the check no longer sees the sending-function call")
	}
}
