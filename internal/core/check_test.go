package core

import (
	"strings"
	"testing"

	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

func TestRepresentativeCoversClasses(t *testing.T) {
	for _, class := range []funcs.Class{funcs.SetBased, funcs.FrequencyBased, funcs.MultisetBased} {
		if f := (Cell{Class: class}).Representative(); f.Class != class {
			t.Errorf("%v representative is %v", class, f.Class)
		}
	}
	// Open cells verify their known lower bound: continuous
	// frequency-based computation, or the class itself otherwise.
	if f := DynamicCell(model.OutdegreeAware, RowNoHelp).Representative(); f.Name != "average" {
		t.Errorf("od/no-help open cell verified with %s, want average", f.Name)
	}
	if f := DynamicCell(model.OutdegreeAware, RowLeader).Representative(); f.Name != "sum" {
		t.Errorf("od/leader open cell verified with %s, want sum", f.Name)
	}
}

func TestInputsForMarksLeaderOnlyWhenAsked(t *testing.T) {
	check := CellCheck{N: 6}
	d := descriptor(t, model.OutdegreeAware)
	for _, row := range Rows() {
		cfg := check.config(d, check.setting(d.Kind, row, true), nil)
		leaders := 0
		for i, in := range cfg.Inputs {
			if in.Leader {
				leaders++
				if i != 0 {
					t.Errorf("%v: agent %d marked leader", row, i)
				}
			}
		}
		want := 0
		if row == RowLeader {
			want = 1
		}
		if leaders != want {
			t.Errorf("%v: %d leaders marked, want %d", row, leaders, want)
		}
	}
}

func TestStaticNetworkPerKind(t *testing.T) {
	check := CellCheck{N: 6}
	network := func(k model.Kind) *graph.Graph {
		return cellSchedule(check.setting(k, RowNoHelp, true), descriptor(t, k), check.N, 1).At(1)
	}
	if !network(model.Symmetric).IsSymmetric() {
		t.Error("symmetric kind got an asymmetric network")
	}
	if !network(model.OutputPortAware).PortsValid() {
		t.Error("port kind got an unlabelled network")
	}
	for _, k := range []model.Kind{model.SimpleBroadcast, model.OutdegreeAware, model.OneBitBroadcast} {
		if !network(k).StronglyConnected() {
			t.Errorf("%v got a disconnected network", k)
		}
	}
}

func TestCellCheckReportsBothHalves(t *testing.T) {
	check := CellCheck{N: 4, Rounds: 400, Seed: 3}
	log, err := check.Check(model.OutdegreeAware, RowNoHelp, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || !strings.HasPrefix(log[0], "average → ") || !strings.HasPrefix(log[1], "ring witness") {
		t.Fatalf("log %q, want the positive run and the ring witness", log)
	}
	// A budget too small to converge fails the positive half.
	if _, err := (CellCheck{N: 6, Rounds: 1, Seed: 3}).Check(model.OutdegreeAware, RowBound, false); err == nil ||
		!strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("one-round budget: err %v, want a convergence failure", err)
	}
	if rounds, detail, err := check.Positive(model.Symmetric, RowNoHelp, false); err != nil || rounds != 0 ||
		!strings.Contains(detail, "delegated") {
		t.Fatalf("dynamic sym/no-help: %d rounds, %q, %v; want a delegated cell", rounds, detail, err)
	}
}

func descriptor(t *testing.T, k model.Kind) *model.Descriptor {
	t.Helper()
	d, err := model.Lookup(k)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
