package metropolis

import (
	"math"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
)

func symSchedules(n int) map[string]dynamic.Schedule {
	return map[string]dynamic.Schedule{
		"bidi-ring":        dynamic.NewStatic(graph.BidirectionalRing(n)),
		"path":             dynamic.NewStatic(graph.Path(n)),
		"random-connected": &dynamic.RandomConnected{Vertices: n, ExtraEdges: 2, Seed: 3},
		"split-ring":       &dynamic.SplitRing{Vertices: n},
		"pairwise":         &dynamic.Pairwise{Vertices: n, Seed: 8},
	}
}

func TestAverageConsensusAllVariants(t *testing.T) {
	n := 6
	vals := []float64{3, 1, 4, 1, 5, 9}
	want := 23.0 / 6
	for _, tc := range []struct {
		name    string
		variant Variant
		kind    model.Kind
	}{
		{"standard", Standard, model.OutdegreeAware},
		{"lazy", Lazy, model.OutdegreeAware},
		{"maxdegree", MaxDegree, model.Symmetric},
	} {
		factory, err := NewFactory(tc.variant, n+2)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range symSchedules(n) {
			e := testutil.RunSchedule(t, s, tc.kind, testutil.Inputs(vals...), factory, 3000, 1)
			testutil.AllOutputsNear(t, e.Outputs(), want, 1e-6, tc.name+"/"+name)
		}
	}
}

func TestSumConservation(t *testing.T) {
	// Doubly stochastic updates preserve Σx exactly at every round.
	n := 5
	vals := []float64{10, 0, -3, 7, 2}
	factory, err := NewFactory(Standard, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunSchedule(t, &dynamic.RandomConnected{Vertices: n, ExtraEdges: 1, Seed: 5},
		model.OutdegreeAware, testutil.Inputs(vals...), factory, 0, 2)
	for r := 0; r < 60; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, o := range e.Outputs() {
			sum += o.(float64)
		}
		if math.Abs(sum-16) > 1e-9 {
			t.Fatalf("round %d: Σx = %v, want 16", r+1, sum)
		}
	}
}

func TestAsyncStartsTolerated(t *testing.T) {
	n := 5
	vals := []float64{2, 4, 6, 8, 10}
	factory, err := NewFactory(Standard, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
		Kind:     model.OutdegreeAware,
		Inputs:   testutil.Inputs(vals...),
		Factory:  factory,
		Starts:   []int{1, 4, 2, 7, 1},
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4000; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	testutil.AllOutputsNear(t, e.Outputs(), 6, 1e-6, "async metropolis")
}

func TestLazySlowerButConverges(t *testing.T) {
	n := 6
	vals := []float64{0, 0, 0, 12, 0, 0}
	run := func(v Variant) int {
		factory, err := NewFactory(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		e := testutil.RunSchedule(t, dynamic.NewStatic(graph.BidirectionalRing(n)),
			model.OutdegreeAware, testutil.Inputs(vals...), factory, 0, 7)
		res, err := engine.RunUntilClose(e, 2.0, model.Euclid, 1e-6, 20000)
		if err != nil || !res.Converged {
			t.Fatalf("variant %d did not converge: %v", v, err)
		}
		return res.Rounds
	}
	std, lazy := run(Standard), run(Lazy)
	if lazy <= std {
		t.Fatalf("lazy (%d rounds) should be slower than standard (%d rounds)", lazy, std)
	}
}

func TestMaxDegreeNeedsBound(t *testing.T) {
	if _, err := NewFactory(MaxDegree, 0); err == nil {
		t.Fatal("MaxDegree accepted without a bound")
	}
	if _, err := NewFactory(0, 5); err == nil {
		t.Fatal("invalid variant accepted")
	}
}

func TestFreqAgentRoundedExact(t *testing.T) {
	// Table 2, symmetric column, bound-known row ([11]): exact
	// frequency-based computation via per-value Metropolis + ℚ_N rounding.
	vals := []float64{1, 1, 1, 2, 2, 7}
	want := funcs.Average().FromVector(vals)
	factory, err := NewFreqFactory(funcs.Average(), MaxDegree, model.Help{BoundN: 9})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range symSchedules(6) {
		e := testutil.RunSchedule(t, s, model.Symmetric, testutil.Inputs(vals...), factory, 4000, 8)
		testutil.AllOutputsNear(t, e.Outputs(), want, 0, name)
	}
}

func TestFreqAgentExactSizeMultiset(t *testing.T) {
	vals := []float64{1, 1, 1, 2, 2, 7}
	factory, err := NewFreqFactory(funcs.Sum(), MaxDegree, model.Help{KnownN: 6})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunSchedule(t, &dynamic.RandomConnected{Vertices: 6, ExtraEdges: 2, Seed: 10},
		model.Symmetric, testutil.Inputs(vals...), factory, 4000, 9)
	testutil.AllOutputsNear(t, e.Outputs(), 14, 0, "sum with n known")
}

func TestFreqAgentDegreeAwareVariant(t *testing.T) {
	vals := []float64{4, 4, 2}
	factory, err := NewFreqFactory(funcs.Average(), Standard, model.Help{})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunSchedule(t, dynamic.NewStatic(graph.Path(3)),
		model.OutdegreeAware, testutil.Inputs(vals...), factory, 4000, 10)
	testutil.AllOutputsNear(t, e.Outputs(), 10.0/3, 1e-4, "approximate freq metropolis")
}

func TestFreqFactoryValidation(t *testing.T) {
	if _, err := NewFreqFactory(funcs.Sum(), MaxDegree, model.Help{BoundN: 5}); err == nil {
		t.Fatal("sum accepted with only a bound")
	}
	if _, err := NewFreqFactory(funcs.Average(), MaxDegree, model.Help{BoundN: 5, KnownN: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := NewFreqFactory(funcs.Average(), MaxDegree, model.Help{}); err == nil {
		t.Fatal("MaxDegree accepted without bound")
	}
	if _, err := NewFreqFactory(funcs.Average(), 0, model.Help{BoundN: 5}); err == nil {
		t.Fatal("invalid variant accepted")
	}
}

func TestFreqEstimatesSumToOne(t *testing.T) {
	// Per-value estimates are conserved and total mass is n, so the
	// per-agent estimates sum to 1 once all instances are known.
	vals := []float64{1, 2, 3, 4}
	factory, err := NewFreqFactory(funcs.Average(), MaxDegree, model.Help{BoundN: 6})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunSchedule(t, dynamic.NewStatic(graph.BidirectionalRing(4)),
		model.Symmetric, testutil.Inputs(vals...), factory, 50, 11)
	total := 0.0
	for i := 0; i < e.N(); i++ {
		for _, x := range e.Agent(i).(*FreqAgent).Estimates() {
			total += x
		}
	}
	if math.Abs(total-4) > 1e-9 {
		t.Fatalf("total estimate mass %v, want 4", total)
	}
}

func TestGrowingGapsMoreauRegime(t *testing.T) {
	// §6 (concluding remarks): with connectivity that never permanently
	// splits but has no finite dynamic diameter, the Metropolis family
	// still converges — Moreau's theorem regime. Communication happens
	// only at triangular-number rounds.
	n := 5
	vals := []float64{2, 4, 6, 8, 10}
	factory, err := NewFactory(Standard, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &dynamic.GrowingGaps{Base: dynamic.NewStatic(graph.BidirectionalRing(n))}
	e := testutil.RunSchedule(t, s, model.OutdegreeAware, testutil.Inputs(vals...), factory, 0, 3)
	res, err := engine.RunUntilClose(e, 6.0, model.Euclid, 1e-4, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Metropolis did not converge under growing gaps (max err %g)", res.MaxErr)
	}
}
