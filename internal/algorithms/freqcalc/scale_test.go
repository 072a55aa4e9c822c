package freqcalc

import (
	"math/rand"
	"testing"

	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
)

// TestScaleRing20 exercises the full §4.2 pipeline at a larger size; the
// repro band predicts laptop-scale pure-algorithm builds fully work.
func TestScaleRing20(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	n := 20
	g := graph.BidirectionalRing(n)
	vals := make([]float64, n)
	want := 0.0
	for i := range vals {
		vals[i] = float64(i % 5)
		want += vals[i]
	}
	want /= float64(n)
	factory, err := NewFactory(model.OutdegreeAware, funcs.Average(), model.Help{})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, testutil.Inputs(vals...), factory, 3*n, 30)
	testutil.AllOutputsNear(t, e.Outputs(), want, 1e-9, "ring-20 average")
}

// TestScaleRandom24WithLeader runs the leader multiset recovery at n = 24
// on a random digraph.
func TestScaleRandom24WithLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	n := 24
	g := graph.RandomStronglyConnected(n, 2*n, rand.New(rand.NewSource(31)))
	inputs := make([]model.Input, n)
	want := 0.0
	for i := range inputs {
		inputs[i] = model.Input{Value: float64(i % 3)}
		want += inputs[i].Value
	}
	inputs[0].Leader = true
	factory, err := NewFactory(model.OutdegreeAware, funcs.Sum(), model.Help{Leaders: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunStatic(t, g, model.OutdegreeAware, inputs, factory, 3*n, 32)
	testutil.AllOutputsNear(t, e.Outputs(), want, 1e-9, "random-24 leader sum")
}
