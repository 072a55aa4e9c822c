package core

import (
	"errors"
	"math/rand"
	"testing"

	"anonnet/internal/algorithms/gossip"
	"anonnet/internal/dynamic"
	"anonnet/internal/fibration"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
)

func TestTable1Structure(t *testing.T) {
	// Simple broadcast: set-based in every row.
	for _, row := range Rows() {
		if c := StaticCell(model.SimpleBroadcast, row); c.Class != funcs.SetBased {
			t.Errorf("Table 1 broadcast %v: %v, want set-based", row, c.Class)
		}
	}
	// The three capable models are equivalent (Theorem 4.1): identical
	// columns.
	for _, row := range Rows() {
		ref := StaticCell(model.OutdegreeAware, row)
		for _, k := range []model.Kind{model.Symmetric, model.OutputPortAware} {
			if c := StaticCell(k, row); c.Class != ref.Class {
				t.Errorf("Table 1 %v %v: %v ≠ %v", k, row, c.Class, ref.Class)
			}
		}
	}
	// Row progression: frequency, frequency, multiset, multiset.
	wants := map[Row]funcs.Class{
		RowNoHelp: funcs.FrequencyBased,
		RowBound:  funcs.FrequencyBased,
		RowSize:   funcs.MultisetBased,
		RowLeader: funcs.MultisetBased,
	}
	for row, want := range wants {
		if c := StaticCell(model.OutdegreeAware, row); c.Class != want || c.Open {
			t.Errorf("Table 1 od %v: %v (open=%t), want %v closed", row, c.Class, c.Open, want)
		}
	}
}

func TestTable2Structure(t *testing.T) {
	for _, row := range Rows() {
		if c := DynamicCell(model.SimpleBroadcast, row); c.Class != funcs.SetBased {
			t.Errorf("Table 2 broadcast %v: %v, want set-based", row, c.Class)
		}
	}
	// The paper's open cells.
	if c := DynamicCell(model.OutdegreeAware, RowNoHelp); !c.Open || !c.ContinuityOnly {
		t.Error("Table 2 od/no-help should be open with continuity restriction")
	}
	if c := DynamicCell(model.OutdegreeAware, RowLeader); !c.Open {
		t.Error("Table 2 od/leader should be open")
	}
	// Closed cells.
	if c := DynamicCell(model.OutdegreeAware, RowBound); c.Class != funcs.FrequencyBased || c.Open {
		t.Error("Table 2 od/bound wrong")
	}
	if c := DynamicCell(model.OutdegreeAware, RowSize); c.Class != funcs.MultisetBased || c.Open {
		t.Error("Table 2 od/size wrong")
	}
	if c := DynamicCell(model.Symmetric, RowNoHelp); c.Class != funcs.FrequencyBased || c.Open {
		t.Error("Table 2 sym/no-help wrong")
	}
	if c := DynamicCell(model.Symmetric, RowLeader); c.Class != funcs.MultisetBased {
		t.Error("Table 2 sym/leader wrong")
	}
}

func TestComputableDecision(t *testing.T) {
	// sum: only with size or leaders in the static capable models.
	if Computable(funcs.MultisetBased, model.OutdegreeAware, RowNoHelp, true) {
		t.Error("sum computable without help?")
	}
	if !Computable(funcs.MultisetBased, model.OutdegreeAware, RowSize, true) {
		t.Error("sum not computable with n known?")
	}
	if Computable(funcs.FrequencyBased, model.SimpleBroadcast, RowLeader, true) {
		t.Error("average computable by broadcast with a leader? (Table 1 says no)")
	}
	if !Computable(funcs.SetBased, model.SimpleBroadcast, RowNoHelp, false) {
		t.Error("max not computable by broadcast?")
	}
}

func TestRowAndCellStrings(t *testing.T) {
	for _, row := range Rows() {
		if row.String() == "" {
			t.Error("empty row name")
		}
	}
	if Row(99).String() == "" || Kind99String() == "" {
		t.Error("fallback strings empty")
	}
	c := Cell{Class: funcs.FrequencyBased, Open: true, ContinuityOnly: true, Source: "x"}
	if c.String() == "" {
		t.Error("cell string empty")
	}
}

// Kind99String keeps the fallback-path coverage honest without exporting
// internals.
func Kind99String() string { return model.Kind(99).String() }

func TestDispatchMatrix(t *testing.T) {
	// Every (kind, row, static) cell: NewFactory must succeed exactly when
	// the table admits the function class.
	for _, static := range []bool{true, false} {
		for _, kind := range []model.Kind{model.SimpleBroadcast, model.OutdegreeAware, model.OutputPortAware, model.Symmetric} {
			if !static && kind == model.OutputPortAware {
				continue // rejected by validate, checked below
			}
			for _, row := range Rows() {
				s := Setting{Kind: kind, Static: static, Row: row, BoundN: 8, KnownN: 6, Leaders: 1}
				for _, f := range []funcs.Func{funcs.Max(), funcs.Average(), funcs.Sum()} {
					_, err := NewFactory(f, s)
					admissible := s.Cell().Class.Contains(f.Class)
					// The two dynamic-symmetric cells realized by Di Luna &
					// Viglietta's algorithm have no runnable factory here
					// (TestDelegatedCells).
					switch {
					case err == nil && !admissible:
						t.Errorf("NewFactory(%s, %v/%v/static=%t) accepted an inadmissible function", f.Name, kind, row, static)
					case err != nil && admissible && !errors.Is(err, ErrNotReimplemented):
						t.Errorf("NewFactory(%s, %v/%v/static=%t) rejected an admissible function: %v", f.Name, kind, row, static, err)
					}
				}
			}
		}
	}
}

func TestDelegatedCells(t *testing.T) {
	// Exactly Table 2's no-help and leader symmetric cells are delegated
	// to Di Luna & Viglietta's algorithm, with a typed error.
	for _, d := range model.Descriptors() {
		for _, static := range []bool{true, false} {
			for _, row := range Rows() {
				s := Setting{Kind: d.Kind, Static: static, Row: row, BoundN: 8, KnownN: 6, Leaders: 1}
				if s.validate() != nil {
					continue
				}
				_, err := NewFactory(funcs.Average(), s)
				want := !static && d.Kind == model.Symmetric && (row == RowNoHelp || row == RowLeader)
				if got := errors.Is(err, ErrNotReimplemented); got != want {
					t.Errorf("%s/%v/static=%t: errors.Is(%v, ErrNotReimplemented) = %t, want %t", d.Canon, row, static, err, got, want)
				}
			}
		}
	}
}

func TestSettingHelpCarriesOnlyTheRow(t *testing.T) {
	s := Setting{BoundN: 8, KnownN: 6, Leaders: 2}
	want := map[Row]model.Help{
		RowNoHelp: {},
		RowBound:  {BoundN: 8},
		RowSize:   {KnownN: 6},
		RowLeader: {Leaders: 2},
	}
	for row, h := range want {
		s.Row = row
		if got := s.Help(); got != h {
			t.Errorf("%v: Help() = %+v, want %+v", row, got, h)
		}
	}
}

func TestDispatchValidation(t *testing.T) {
	if _, err := NewFactory(funcs.Average(), Setting{Kind: model.OutputPortAware, Static: false, Row: RowNoHelp}); err == nil {
		t.Error("dynamic output-port setting accepted")
	}
	if _, err := NewFactory(funcs.Average(), Setting{Kind: model.OutdegreeAware, Static: true, Row: RowBound}); err == nil {
		t.Error("RowBound without BoundN accepted")
	}
	if _, err := NewFactory(funcs.Average(), Setting{Kind: model.OutdegreeAware, Static: true, Row: RowSize}); err == nil {
		t.Error("RowSize without KnownN accepted")
	}
	if _, err := NewFactory(funcs.Average(), Setting{Kind: model.OutdegreeAware, Static: true, Row: RowLeader}); err == nil {
		t.Error("RowLeader without Leaders accepted")
	}
	if _, err := NewFactory(funcs.Average(), Setting{Kind: 0, Static: true, Row: RowNoHelp}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := NewFactory(funcs.Average(), Setting{Kind: model.OutdegreeAware, Static: true, Row: 0}); err == nil {
		t.Error("invalid row accepted")
	}
}

func TestDispatchEndToEnd(t *testing.T) {
	// One run per implemented positive cell family, end to end through
	// core.NewFactory.
	vals := []float64{1, 2, 2, 1, 2, 1}
	inputs := testutil.Inputs(vals...)

	// Static broadcast: max.
	f, err := NewFactory(funcs.Max(), Setting{Kind: model.SimpleBroadcast, Static: true, Row: RowNoHelp})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, graph.Ring(6), model.SimpleBroadcast, inputs, f, 10, 1)
	testutil.AllOutputsEqual(t, e.Outputs(), 2.0, "broadcast max")

	// Static od: average.
	f, err = NewFactory(funcs.Average(), Setting{Kind: model.OutdegreeAware, Static: true, Row: RowNoHelp})
	if err != nil {
		t.Fatal(err)
	}
	e = testutil.RunStatic(t, graph.Ring(6), model.OutdegreeAware, inputs, f, 40, 2)
	testutil.AllOutputsNear(t, e.Outputs(), 1.5, 1e-9, "static od average")

	// Dynamic od with bound: exact average.
	f, err = NewFactory(funcs.Average(), Setting{Kind: model.OutdegreeAware, Static: false, Row: RowBound, BoundN: 8})
	if err != nil {
		t.Fatal(err)
	}
	e = testutil.RunSchedule(t, &dynamic.SplitRing{Vertices: 6}, model.OutdegreeAware, inputs, f, 900, 3)
	testutil.AllOutputsNear(t, e.Outputs(), 1.5, 0, "dynamic od bound average")

	// Dynamic symmetric with size: sum.
	f, err = NewFactory(funcs.Sum(), Setting{Kind: model.Symmetric, Static: false, Row: RowSize, KnownN: 6})
	if err != nil {
		t.Fatal(err)
	}
	e = testutil.RunSchedule(t, &dynamic.RandomConnected{Vertices: 6, ExtraEdges: 2, Seed: 5},
		model.Symmetric, inputs, f, 4000, 4)
	testutil.AllOutputsNear(t, e.Outputs(), 9, 0, "dynamic sym size sum")

	// Static leader: sum via one leader.
	f, err = NewFactory(funcs.Sum(), Setting{Kind: model.OutdegreeAware, Static: true, Row: RowLeader, Leaders: 1})
	if err != nil {
		t.Fatal(err)
	}
	e = testutil.RunStatic(t, graph.Ring(6), model.OutdegreeAware, testutil.WithLeaders(inputs, 0), f, 60, 5)
	testutil.AllOutputsNear(t, e.Outputs(), 9, 1e-9, "static od leader sum")
}

func gossipMax(t *testing.T) model.Factory {
	t.Helper()
	f, err := gossip.NewFactory(funcs.Max())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCheckLiftingGossip(t *testing.T) {
	// Lemma 3.1 on ring fibrations, all models that apply.
	fib, err := fibration.RingFibration(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	inputs := testutil.Inputs(1, 2, 3, 4)
	for _, kind := range []model.Kind{model.SimpleBroadcast, model.OutdegreeAware} {
		if err := CheckLifting(fib, kind, gossipMax(t), inputs, 30, 7); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
	// Port model needs port-preserving coverings; rebuild with ports.
	rng := rand.New(rand.NewSource(3))
	cover, err := fibration.LiftCover(graph.Ring(4).AssignPorts(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLifting(cover, model.OutputPortAware, gossipMax(t), inputs, 30, 8); err != nil {
		t.Errorf("port lifting: %v", err)
	}
}

func TestCheckLiftingFreqcalc(t *testing.T) {
	// The lifting lemma holds for the real §4.2 algorithm too: run the
	// frequency pipeline on a cover and its base.
	factory, err := NewFactory(funcs.Average(), Setting{Kind: model.OutdegreeAware, Static: true, Row: RowNoHelp})
	if err != nil {
		t.Fatal(err)
	}
	fib, err := fibration.RingFibration(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLifting(fib, model.OutdegreeAware, factory, testutil.Inputs(1, 2, 4), 40, 9); err != nil {
		t.Error(err)
	}
}

func TestCheckLiftingOneBit(t *testing.T) {
	// One bit per round is a blind cast: its executions lift along any
	// fibration, even one that does not preserve outdegrees (which the od
	// model rejects, see below). Binary inputs, as the one-bit algorithm
	// requires.
	factory, err := NewFactory(funcs.Max(), Setting{Kind: model.OneBitBroadcast, Static: true, Row: RowNoHelp})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLifting(nonOutdegreeFibration(t), model.OneBitBroadcast, factory, testutil.Inputs(1, 0), 20, 10); err != nil {
		t.Error(err)
	}
	ring, err := fibration.RingFibration(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLifting(ring, model.OneBitBroadcast, factory, testutil.Inputs(0, 1, 0, 0), 20, 11); err != nil {
		t.Error(err)
	}
}

// nonOutdegreeFibration lifts a two-vertex base with fibres of
// cardinalities 1 and 3 so that outdegrees are not preserved.
func nonOutdegreeFibration(t *testing.T) *fibration.Fibration {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	base := graph.New(2)
	base.AddEdge(0, 0)
	base.AddEdge(0, 1)
	base.AddEdge(1, 0)
	base.AddEdge(1, 0)
	base.AddEdge(1, 0)
	base.AddEdge(1, 1)
	fib, err := fibration.LiftFibred(base, []int{1, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return fib
}

func TestCheckLiftingRejectsBadSideConditions(t *testing.T) {
	// A fibration that does not preserve outdegrees must be rejected for
	// the od model.
	err := CheckLifting(nonOutdegreeFibration(t), model.OutdegreeAware, gossipMax(t), testutil.Inputs(1, 2), 5, 10)
	if err == nil {
		t.Fatal("outdegree-violating fibration accepted for the od model")
	}
}

func TestRingImpossibilityWitness(t *testing.T) {
	// ν = {1 ↦ 2/3, 5 ↦ 1/3} on rings R_6 and R_9: any algorithm's output
	// sets agree, so the sum (9·… vs 6·…) cannot be computed.
	factory, err := NewFactory(funcs.Average(), Setting{Kind: model.OutdegreeAware, Static: true, Row: RowNoHelp})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RingImpossibilityWitness(factory, model.OutdegreeAware,
		map[float64]int{1: 2, 5: 1}, 2, 3, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Agree {
		t.Fatalf("frequency-equivalent runs disagreed: %v vs %v", rep.OutputsA, rep.OutputsB)
	}
	// And the agreed value is the frequency-based average, not either sum.
	if got := rep.OutputsA[0].(float64); got != 7.0/3 {
		t.Fatalf("agreed output %v, want average 7/3", got)
	}
}

func TestRingWitnessGossipToo(t *testing.T) {
	rep, err := RingImpossibilityWitness(gossipMax(t), model.SimpleBroadcast,
		map[float64]int{1: 1, 5: 1}, 2, 4, 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Agree {
		t.Fatal("gossip distinguished frequency-equivalent ring inputs")
	}
}

func TestBroadcastSetCeilingWitness(t *testing.T) {
	// Same value set {1, 5}, different frequencies (1:2 vs 1:4): blind
	// broadcast cannot tell them apart.
	rep, err := BroadcastSetCeilingWitness(gossipMax(t),
		map[float64]int{1: 1, 5: 1}, []int{1, 2}, []int{1, 4}, 40, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Agree {
		t.Fatalf("broadcast distinguished same-set inputs: %v vs %v", rep.OutputsA, rep.OutputsB)
	}
}

func TestWitnessValidation(t *testing.T) {
	if _, err := RingImpossibilityWitness(gossipMax(t), model.Symmetric, map[float64]int{1: 1}, 1, 2, 5, 1); err == nil {
		t.Error("symmetric kind accepted by directed-ring witness")
	}
	if _, err := RingImpossibilityWitness(gossipMax(t), model.SimpleBroadcast, map[float64]int{1: 1}, 0, 2, 5, 1); err == nil {
		t.Error("fold factor 0 accepted")
	}
	if _, err := BroadcastSetCeilingWitness(gossipMax(t), map[float64]int{1: 1, 2: 1}, []int{1}, []int{1, 2}, 5, 1); err == nil {
		t.Error("wrong cardinality vector length accepted")
	}
}

func TestDispatchIgnoresStrayHelpFields(t *testing.T) {
	// Regression: a Setting built generically may carry KnownN/Leaders
	// alongside a row that doesn't use them; only the selected row's
	// parameter may reach the algorithm, else a no-help run waits forever
	// for leaders nobody marked.
	s := Setting{Kind: model.OutdegreeAware, Static: true, Row: RowNoHelp,
		BoundN: 8, KnownN: 6, Leaders: 1}
	f, err := NewFactory(funcs.Average(), s)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, graph.Ring(4), model.OutdegreeAware,
		testutil.Inputs(1, 2, 2, 1), f, 60, 21)
	testutil.AllOutputsNear(t, e.Outputs(), 1.5, 1e-9, "stray-help average")
}
