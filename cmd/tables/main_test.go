package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	verboseOnce   sync.Once
	verboseOut    string
	verboseStatus int
)

// verboseRun runs `tables -v` once for the whole package.
func verboseRun(t *testing.T) string {
	t.Helper()
	verboseOnce.Do(func() {
		var stdout, stderr bytes.Buffer
		verboseStatus = run([]string{"-v"}, &stdout, &stderr)
		verboseOut = stdout.String() + stderr.String()
	})
	if verboseStatus != 0 {
		t.Fatalf("tables -v exited %d:\n%s", verboseStatus, verboseOut)
	}
	return verboseOut
}

func TestVerifySingleCellEndToEnd(t *testing.T) {
	// A small budget keeps this fast; Table 1 converges within it.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "1", "-n", "4", "-rounds", "400", "-seed", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Table 1") || strings.Contains(out, "Table 2") {
		t.Fatalf("-table 1 printed the wrong tables:\n%s", out)
	}
	if !strings.HasSuffix(out, "RESULT: all cells verified\n") {
		t.Fatalf("missing verdict:\n%s", out)
	}
}

func TestExpectedMatchesFunction(t *testing.T) {
	// The standard inputs 1,2,2,1,2,2: sum 10, average 5/3, max 2.
	out := verboseRun(t)
	for _, want := range []string{
		"outdegree awareness/n is known: sum → 10 in ",
		"outdegree awareness/no centralized help: average → 1.6666666666666667 in ",
		"simple broadcast/no centralized help: max → 2 in ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

func TestInputsForBinaryModels(t *testing.T) {
	// Under onebit the inputs are 1,0,0,…: max is 1, never 2.
	out := verboseRun(t)
	if !strings.Contains(out, "one-bit broadcast/no centralized help: max → 1 in ") {
		t.Errorf("onebit did not verify max → 1:\n%s", out)
	}
	if strings.Contains(out, "one-bit broadcast/no centralized help: max → 2") {
		t.Error("onebit ran on non-binary inputs")
	}
}

func TestUnknownTableRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "7"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-table 7 exited %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("-table 7 ran something:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "-table 7") || !strings.Contains(msg, "0 (both), 1, 2") {
		t.Errorf("error does not name the valid tables: %q", msg)
	}
}

// bannedImports are the layers the cell checks run on: they live in
// internal/core, and this command only prints what core verifies.
var bannedImports = []string{
	"anonnet/internal/engine", "anonnet/internal/graph", "anonnet/internal/dynamic",
	"anonnet/internal/fibration", "anonnet/internal/matrix",
}

func TestTablesImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "anonnet/internal/algorithms/") {
				t.Errorf("%s imports %s; verify through internal/core instead", name, path)
			}
			for _, banned := range bannedImports {
				if path == banned {
					t.Errorf("%s imports %s; verify through internal/core instead", name, path)
				}
			}
		}
	}
}
