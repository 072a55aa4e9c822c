package main

import (
	"bytes"
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"anonnet/internal/job"
)

// compileGraph compiles a -graph value the way run does, under a model
// and function every builder accepts.
func compileGraph(s string) (*job.Compiled, error) {
	g, err := parseGraph(s)
	if err != nil {
		return nil, err
	}
	return job.Compile(job.Spec{SchemaVersion: job.SpecSchemaVersion, Graph: g, Kind: "od", Function: "average", Seed: 1})
}

func TestParseGraphSpecs(t *testing.T) {
	statics := []string{"ring:5", "bidiring:4", "star:6", "path:3", "complete:4",
		"hypercube:3", "debruijn:2.3", "torus:2.3", "random:5", "randomsym:5", "geometric:6"}
	for _, spec := range statics {
		c, err := compileGraph(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if !c.Setting.Static {
			t.Errorf("%q: expected static", spec)
		}
		if c.N < 1 || !c.Schedule.At(1).HasSelfLoops() {
			t.Errorf("%q: bad schedule", spec)
		}
	}
	dynamics := []string{"splitring:6", "randomdyn:5", "pairwise:7"}
	for _, spec := range dynamics {
		c, err := compileGraph(spec)
		if err != nil || c.Setting.Static {
			t.Errorf("%q: err=%v compiled=%+v", spec, err, c)
		}
	}
	for _, bad := range []string{"nope:3", "ring:x", "ring:0", "torus:5", "debruijn:2"} {
		if _, err := compileGraph(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseInputs(t *testing.T) {
	in, err := parseList("1, 2.5,3", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err != nil || len(in) != 3 || in[1] != 2.5 {
		t.Fatalf("parseList floats = %v, %v", in, err)
	}
	if err := run([]string{"-graph", "ring:3", "-values", "1,x,3"}, new(bytes.Buffer)); err == nil {
		t.Error("non-numeric value accepted")
	}
}

func TestParseIntsAndLinear(t *testing.T) {
	v, err := parseList("0, 2,4", strconv.Atoi)
	if err != nil || len(v) != 3 || v[2] != 4 {
		t.Fatalf("parseList ints = %v, %v", v, err)
	}
	if _, err := parseList("a", strconv.Atoi); err == nil {
		t.Error("parseList accepted a")
	}
	if v, err := parseList("", strconv.Atoi); err != nil || v != nil {
		t.Fatalf("parseList empty = %v, %v", v, err)
	}
	// Without -values the inputs are 1..n: their sum on a 3-ring is 6.
	var out bytes.Buffer
	if err := run([]string{"-graph", "ring:3", "-row", "size", "-func", "sum", "-rounds", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "true value: 6\n") {
		t.Fatalf("default inputs are not 1..n:\n%s", out.String())
	}
}

var (
	finalRe = regexp.MustCompile(`(?m)^final outputs after \d+ rounds: (.*)$`)
	msgsRe  = regexp.MustCompile(`(?m)^communication: (\d+) messages`)
	faultRe = regexp.MustCompile(`(?m)^faults injected: (\d+) dropped, (\d+) duplicated, (\d+) delayed$`)
)

// TestOutputPortModel runs the output-port-aware model on every static
// builder family that labels its ports: max of the default inputs 1..n
// must reach every agent.
func TestOutputPortModel(t *testing.T) {
	for _, g := range []string{"ring:6", "bidiring:5", "star:5", "hypercube:3", "debruijn:2.3", "torus:3.3"} {
		var out bytes.Buffer
		if err := run([]string{"-graph", g, "-kind", "op", "-func", "max", "-rounds", "60"}, &out); err != nil {
			t.Errorf("%s: %v", g, err)
			continue
		}
		outs := strings.Fields(strings.Trim(finalRe.FindStringSubmatch(out.String())[1], "[]"))
		for _, o := range outs {
			if o != strconv.Itoa(len(outs)) {
				t.Errorf("%s: final outputs %v, want all %d", g, outs, len(outs))
				break
			}
		}
	}
	var out bytes.Buffer
	if err := run(strings.Fields("-graph ring:6 -kind op -func max -values 1,7,3,2,5,4 -rounds 30"), &out); err != nil {
		t.Fatal(err)
	}
	if m := finalRe.FindStringSubmatch(out.String()); m[1] != "[7 7 7 7 7 7]" {
		t.Fatalf("final outputs %s, want all 7", m[1])
	}
}

// TestAgreesWithJobRun checks that anonsim's fixed-round trace ends where
// job.Run of the same spec ends when its patience outlasts the budget:
// the same outputs, message count and fault counts.
func TestAgreesWithJobRun(t *testing.T) {
	cases := []struct {
		args   string
		rounds int
		spec   job.Spec
	}{
		{"-graph randomdyn:8 -kind od -func average -seed 7", 5,
			job.Spec{Graph: job.GraphSpec{Builder: "randomdyn", N: 8}, Kind: "od", Function: "average", Seed: 7}},
		{"-graph ring:12 -kind od -func average -engine vec -parallel 2 -values 3,1,4,1,5,9,2,6,5,3,5,8", 40,
			job.Spec{SchemaVersion: 5, Graph: job.GraphSpec{Builder: "ring", N: 12}, Kind: "od", Function: "average",
				Engine: "vec", Shards: 2, Values: []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}, Seed: 1}},
		{"-graph torus:3.4 -kind bc -func max -engine shard -parallel 3 -seed 2", 20,
			job.Spec{Graph: job.GraphSpec{Builder: "torus", Rows: 3, Cols: 4}, Kind: "bc", Function: "max",
				Engine: "shard", Shards: 3, Seed: 2}},
		{"-graph bidiring:8 -kind od -func average -seed 5 -drop 0.1 -delayp 0.2 -delay 2 -churn 0.2", 60,
			job.Spec{Graph: job.GraphSpec{Builder: "bidiring", N: 8}, Kind: "od", Function: "average", Seed: 5,
				Faults: &job.FaultPlan{Drop: 0.1, DelayP: 0.2, DelayMax: 2, Churn: &job.ChurnPlan{Drop: 0.2, Guard: "repair"}}}},
		{"-graph ring:6 -kind onebit -func max", 30,
			job.Spec{Graph: job.GraphSpec{Builder: "ring", N: 6}, Kind: "onebit", Function: "max", Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var out bytes.Buffer
			args := append(strings.Fields(tc.args), "-rounds", strconv.Itoa(tc.rounds))
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			spec := tc.spec
			spec.MaxRounds, spec.Patience = tc.rounds, tc.rounds+1
			c, err := job.Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run(context.Background(), c, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != tc.rounds {
				t.Fatalf("job.Run stopped after %d rounds, want %d", res.Rounds, tc.rounds)
			}
			if got, want := finalRe.FindStringSubmatch(out.String())[1], fmt.Sprint(res.Outputs); got != want {
				t.Errorf("anonsim outputs %s, job.Run outputs %s", got, want)
			}
			if got, want := msgsRe.FindStringSubmatch(out.String())[1], strconv.FormatInt(res.Messages, 10); got != want {
				t.Errorf("anonsim delivered %s messages, job.Run %s", got, want)
			}
			if res.Faults != nil {
				want := fmt.Sprintf("faults injected: %d dropped, %d duplicated, %d delayed",
					res.Faults.Dropped, res.Faults.Duplicated, res.Faults.Delayed)
				if got := faultRe.FindString(out.String()); got != want {
					t.Errorf("anonsim %q, job.Run %q", got, want)
				}
			}
		})
	}
}

// anonsimBannedImports are the layers job.Compile owns: anonsim builds a
// job.Spec and never reaches past it to build networks, settings,
// algorithms or fault plans itself.
var anonsimBannedImports = []string{
	"anonnet/internal/graph", "anonnet/internal/dynamic", "anonnet/internal/faults",
	"anonnet/internal/core", "anonnet/internal/funcs",
}

func TestAnonsimImports(t *testing.T) {
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
			for _, banned := range anonsimBannedImports {
				if path == banned {
					t.Errorf("%s imports %s; build a job.Spec instead", name, path)
				}
			}
		}
	}
}
