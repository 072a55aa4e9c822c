package main

import (
	"testing"

	"anonnet/internal/core"
	"anonnet/internal/funcs"
	"anonnet/internal/model"
)

func TestRepresentativeCoversClasses(t *testing.T) {
	if f := representative(funcs.SetBased); f.Class != funcs.SetBased {
		t.Errorf("set-based representative is %v", f.Class)
	}
	if f := representative(funcs.FrequencyBased); f.Class != funcs.FrequencyBased {
		t.Errorf("frequency-based representative is %v", f.Class)
	}
	if f := representative(funcs.MultisetBased); f.Class != funcs.MultisetBased {
		t.Errorf("multiset-based representative is %v", f.Class)
	}
}

func TestInputsForMarksLeaderOnlyWhenAsked(t *testing.T) {
	plain := inputsFor(desc(t, model.OutdegreeAware), 6, core.RowNoHelp)
	for i, in := range plain {
		if in.Leader {
			t.Fatalf("agent %d marked leader without the leader row", i)
		}
	}
	withLeader := inputsFor(desc(t, model.OutdegreeAware), 6, core.RowLeader)
	if !withLeader[0].Leader {
		t.Fatal("leader row did not mark agent 0")
	}
	count := 0
	for _, in := range withLeader {
		if in.Leader {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d leaders marked, want 1", count)
	}
}

func TestExpectedMatchesFunction(t *testing.T) {
	in := inputsFor(desc(t, model.OutdegreeAware), 6, core.RowNoHelp) // values 1,2,2,1,2,2
	if got := expected(funcs.Sum(), in); got != 10 {
		t.Fatalf("expected sum = %v, want 10", got)
	}
	if got := expected(funcs.Max(), in); got != 2 {
		t.Fatalf("expected max = %v, want 2", got)
	}
}

func TestInputsForBinaryModels(t *testing.T) {
	in := inputsFor(desc(t, model.OneBitBroadcast), 6, core.RowNoHelp) // values 1,0,0,1,0,0
	for i, input := range in {
		if input.Value != 0 && input.Value != 1 {
			t.Fatalf("agent %d got non-binary input %v under onebit", i, input.Value)
		}
	}
	if got := expected(funcs.Max(), in); got != 1 {
		t.Fatalf("expected max = %v, want 1", got)
	}
}

func TestStaticNetworkPerKind(t *testing.T) {
	if g := staticNetwork(desc(t, model.Symmetric), 6); !g.IsSymmetric() {
		t.Fatal("symmetric kind got an asymmetric network")
	}
	if g := staticNetwork(desc(t, model.OutputPortAware), 6); !g.PortsValid() {
		t.Fatal("port kind got an unlabelled network")
	}
	if g := staticNetwork(desc(t, model.OutdegreeAware), 6); !g.StronglyConnected() {
		t.Fatal("od kind got a disconnected network")
	}
}

func TestVerifySingleCellEndToEnd(t *testing.T) {
	// Run one positive and one negative verification through the harness
	// plumbing (small budget keeps this fast).
	r := &runner{n: 4, rounds: 400, seed: 3}
	cell := core.StaticCell(model.OutdegreeAware, core.RowNoHelp)
	if !r.verifyPositive(desc(t, model.OutdegreeAware), core.RowNoHelp, true, cell) {
		t.Fatal("positive verification failed")
	}
	if !r.verifyNegative(desc(t, model.OutdegreeAware), core.RowNoHelp, true, cell) {
		t.Fatal("negative verification failed")
	}
}

func desc(t *testing.T, k model.Kind) *model.Descriptor {
	t.Helper()
	d, err := model.Lookup(k)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
