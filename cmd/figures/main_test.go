package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestUnknownFigureRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-fig nosuch exited %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("-fig nosuch ran something:\n%s", stdout.String())
	}
	msg := stderr.String()
	for _, name := range []string{`"nosuch"`, "all", "pushsum-rate", "minbase-rounds", "metropolis-rate", "exact-rounding", "dobrushin", "growing-gaps"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not name %s", msg, name)
		}
	}
}

func TestOneFigureWithCSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "dobrushin", "-csv", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "== F5: ") || strings.Contains(out, "F1") ||
		!strings.HasSuffix(out, "RESULT: all sweeps within the paper's bounds\n") {
		t.Fatalf("-fig dobrushin printed:\n%s", out)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "dobrushin.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(csv)), "\n"); lines[0] != "t,delta,envelope" || len(lines) != 13 {
		t.Fatalf("dobrushin.csv:\n%s", csv)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("-fig dobrushin wrote %d CSV files, want 1", len(entries))
	}
}

func TestCSVWriteFailureExits1(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "dobrushin", "-csv", notADir}, &stdout, &stderr); code != 1 {
		t.Fatalf("unwritable -csv exited %d, want 1", code)
	}
	if !strings.HasPrefix(stderr.String(), "figures: ") {
		t.Errorf("stderr %q, want the write error", stderr.String())
	}
}

// bannedImports are the layers the sweeps run on: they live in
// internal/core, and this command only prints what core measures.
var bannedImports = []string{
	"anonnet/internal/engine", "anonnet/internal/graph", "anonnet/internal/dynamic",
	"anonnet/internal/fibration", "anonnet/internal/matrix",
}

func TestFiguresImports(t *testing.T) {
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
				t.Errorf("%s imports %s; measure through internal/core instead", name, path)
			}
			for _, banned := range bannedImports {
				if path == banned {
					t.Errorf("%s imports %s; measure through internal/core instead", name, path)
				}
			}
		}
	}
}
