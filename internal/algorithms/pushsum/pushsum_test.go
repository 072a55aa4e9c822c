package pushsum

import (
	"math"
	"math/rand"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/testutil"
)

func schedules(n int) map[string]dynamic.Schedule {
	return map[string]dynamic.Schedule{
		"static-ring":      dynamic.NewStatic(graph.Ring(n)),
		"static-random":    dynamic.NewStatic(graph.RandomStronglyConnected(n, n, rand.New(rand.NewSource(5)))),
		"random-connected": &dynamic.RandomConnected{Vertices: n, ExtraEdges: 2, Seed: 9},
		"split-ring":       &dynamic.SplitRing{Vertices: n},
		"pairwise":         &dynamic.Pairwise{Vertices: n, Seed: 4},
	}
}

func TestQuotSumComputesAverage(t *testing.T) {
	n := 8
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	want := 31.0 / 8
	for name, s := range schedules(n) {
		e := testutil.RunSchedule(t, s, model.OutdegreeAware, testutil.Inputs(vals...),
			NewAverageFactory(), 400, 1)
		testutil.AllOutputsNear(t, e.Outputs(), want, 1e-6, name)
	}
}

func TestQuotSumGeneralWeights(t *testing.T) {
	// quot-sum with weights: Σv/Σw for w ≠ 1.
	vals := []float64{10, 20, 30}
	weights := []float64{1, 2, 2}
	want := 60.0 / 5
	i := 0
	factory := func(in model.Input) model.Agent {
		a := NewQuotSum(in.Value, weights[i])
		i++
		return a
	}
	e := testutil.RunSchedule(t, dynamic.NewStatic(graph.Ring(3)), model.OutdegreeAware,
		testutil.Inputs(vals...), factory, 300, 2)
	testutil.AllOutputsNear(t, e.Outputs(), want, 1e-9, "weighted quot-sum")
}

func TestQuotSumMassConservation(t *testing.T) {
	n := 6
	vals := []float64{1, 2, 3, 4, 5, 6}
	e := testutil.RunSchedule(t, &dynamic.RandomConnected{Vertices: n, ExtraEdges: 1, Seed: 3},
		model.OutdegreeAware, testutil.Inputs(vals...), NewAverageFactory(), 0, 3)
	for r := 0; r < 50; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		var sy, sz float64
		for i := 0; i < n; i++ {
			y, z := e.Agent(i).(*QuotSum).Mass()
			sy += y
			sz += z
		}
		if math.Abs(sy-21) > 1e-9 || math.Abs(sz-6) > 1e-9 {
			t.Fatalf("round %d: mass (Σy, Σz) = (%v, %v), want (21, 6)", r+1, sy, sz)
		}
	}
}

func TestQuotSumAsyncStarts(t *testing.T) {
	n := 5
	vals := []float64{2, 4, 6, 8, 10}
	e, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
		Kind:     model.OutdegreeAware,
		Inputs:   testutil.Inputs(vals...),
		Factory:  NewAverageFactory(),
		Starts:   []int{1, 3, 2, 6, 1},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 400; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	testutil.AllOutputsNear(t, e.Outputs(), 6, 1e-6, "async quot-sum")
}

func TestTheorem52ConvergenceRateShape(t *testing.T) {
	// Theorem 5.2: ε-convergence within O(n²·D·log(1/ε)) — so halving ε
	// adds rounds linearly, and the round count stays far below the bound.
	n := 6
	vals := []float64{1, 2, 3, 4, 5, 6}
	target := 3.5
	roundsTo := func(eps float64) int {
		e := testutil.RunSchedule(t, dynamic.NewStatic(graph.Ring(n)), model.OutdegreeAware,
			testutil.Inputs(vals...), NewAverageFactory(), 0, 5)
		res, err := engine.RunUntilClose(e, target, model.Euclid, eps, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("no convergence to ε=%g within 10000 rounds", eps)
		}
		return res.Rounds
	}
	r2 := roundsTo(1e-2)
	r8 := roundsTo(1e-8)
	if r8 <= r2 {
		t.Fatalf("rounds(1e-8)=%d should exceed rounds(1e-2)=%d", r8, r2)
	}
	// The paper's bound with D = n-1: n²·D·log(1/ε) ≈ 36·5·18 ≈ 3300.
	if r8 > 3300 {
		t.Fatalf("rounds(1e-8)=%d exceeds the Theorem 5.2 bound", r8)
	}
}

func TestFrequencyQuotientsConverge(t *testing.T) {
	// ν = {1: 1/2, 2: 1/3, 7: 1/6} on n = 6.
	vals := []float64{1, 1, 1, 2, 2, 7}
	factory, err := NewFrequencyFactory(funcs.Average(), model.Help{})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range schedules(6) {
		e := testutil.RunSchedule(t, s, model.OutdegreeAware, testutil.Inputs(vals...), factory, 500, 6)
		for i := 0; i < e.N(); i++ {
			q := e.Agent(i).(*Frequency).Quotients()
			for w, wantFreq := range map[float64]float64{1: 0.5, 2: 1.0 / 3, 7: 1.0 / 6} {
				if math.Abs(q[w]-wantFreq) > 1e-6 {
					t.Fatalf("%s: agent %d freq(%g) = %v, want %v", name, i, w, q[w], wantFreq)
				}
			}
		}
	}
}

func TestFrequencyMassExactlyN(t *testing.T) {
	// The column-stochastic join rule keeps Σz = n once every agent has
	// joined every instance — the conservation law whose violation by the
	// transcribed Algorithm 1 is recorded in DESIGN.md §6.
	vals := []float64{1, 2, 2}
	factory, err := NewFrequencyFactory(funcs.Average(), model.Help{})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunSchedule(t, dynamic.NewStatic(graph.Path(3)), model.OutdegreeAware,
		testutil.Inputs(vals...), factory, 20, 7)
	var sy, sz float64
	for i := 0; i < e.N(); i++ {
		y, z := e.Agent(i).(*Frequency).Mass()
		sy += y
		sz += z
	}
	// Two instances (values 1 and 2): Σy = 1 + 2 = 3; Σz = 3 + 3 = 6.
	if math.Abs(sy-3) > 1e-9 {
		t.Fatalf("Σy = %v, want 3", sy)
	}
	if math.Abs(sz-6) > 1e-9 {
		t.Fatalf("Σz = %v, want 6 (= n per instance): the literal Algorithm 1 patch rule gives 19/6 per instance", sz)
	}
}

func TestCorollary53ExactWithBound(t *testing.T) {
	// With a bound N ≥ n, rounding in ℚ_N stabilizes on the exact
	// frequency-based value in finite time.
	vals := []float64{1, 1, 1, 2, 2, 7}
	want := funcs.Average().FromVector(vals)
	for _, bound := range []int{6, 10, 17} {
		factory, err := NewFrequencyFactory(funcs.Average(), model.Help{BoundN: bound})
		if err != nil {
			t.Fatal(err)
		}
		e := testutil.RunSchedule(t, &dynamic.RandomConnected{Vertices: 6, ExtraEdges: 2, Seed: 11},
			model.OutdegreeAware, testutil.Inputs(vals...), factory, 600, 8)
		testutil.AllOutputsNear(t, e.Outputs(), want, 0, "bound N="+string(rune('0'+bound%10)))
	}
}

func TestCorollary54MultisetWithKnownSize(t *testing.T) {
	vals := []float64{1, 1, 1, 2, 2, 7}
	factory, err := NewFrequencyFactory(funcs.Sum(), model.Help{KnownN: 6})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunSchedule(t, &dynamic.SplitRing{Vertices: 6}, model.OutdegreeAware,
		testutil.Inputs(vals...), factory, 800, 9)
	testutil.AllOutputsNear(t, e.Outputs(), 14, 0, "sum with n known")
}

func TestLeaderVariantComputesMultiplicities(t *testing.T) {
	// §5.5: with one leader and z-mass only at leaders, ℓ·x[ω] →
	// multiplicity(ω); count and sum become computable.
	vals := []float64{1, 1, 1, 2, 2, 7}
	inputs := testutil.WithLeaders(testutil.Inputs(vals...), 2)
	for _, f := range []funcs.Func{funcs.Sum(), funcs.Count()} {
		factory, err := NewFrequencyFactory(f, model.Help{Leaders: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := f.FromVector(vals)
		e := testutil.RunSchedule(t, &dynamic.RandomConnected{Vertices: 6, ExtraEdges: 1, Seed: 13},
			model.OutdegreeAware, inputs, factory, 800, 10)
		testutil.AllOutputsNear(t, e.Outputs(), want, 0, "leader "+f.Name)
	}
}

func TestTwoLeaders(t *testing.T) {
	vals := []float64{5, 5, 3, 3, 3, 3}
	inputs := testutil.WithLeaders(testutil.Inputs(vals...), 0, 5)
	factory, err := NewFrequencyFactory(funcs.Count(), model.Help{Leaders: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunSchedule(t, dynamic.NewStatic(graph.BidirectionalRing(6)),
		model.OutdegreeAware, inputs, factory, 600, 11)
	testutil.AllOutputsNear(t, e.Outputs(), 6, 0, "two-leader count")
}

func TestContinuityRequirementEnforced(t *testing.T) {
	if _, err := NewFrequencyFactory(funcs.Sum(), model.Help{}); err == nil {
		t.Fatal("sum accepted without size knowledge")
	}
	if _, err := NewFrequencyFactory(funcs.Sum(), model.Help{BoundN: 8}); err == nil {
		t.Fatal("sum accepted with only a bound")
	}
	for _, h := range []model.Help{{BoundN: -1}, {KnownN: -2}, {Leaders: -3}} {
		if _, err := NewFrequencyFactory(funcs.Average(), h); err == nil {
			t.Fatalf("negative help %+v accepted", h)
		}
	}
}

func TestFrequencyAsyncStarts(t *testing.T) {
	vals := []float64{1, 1, 2, 2, 2, 4}
	factory, err := NewFrequencyFactory(funcs.Average(), model.Help{BoundN: 8})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(6)),
		Kind:     model.OutdegreeAware,
		Inputs:   testutil.Inputs(vals...),
		Factory:  factory,
		Starts:   []int{1, 4, 2, 9, 1, 2},
		Seed:     12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 900; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	testutil.AllOutputsNear(t, e.Outputs(), 2, 0, "async exact frequency")
}

func TestThresholdPredicateIrrational(t *testing.T) {
	// Φ_r^ω with irrational r is continuous in frequency: the Approximate
	// mode converges to it even without a bound (Cor. 5.5).
	vals := []float64{1, 1, 2}
	f := funcs.ThresholdFreq(1, math.Sqrt2/2) // ν(1) = 2/3 ≈ 0.667 ≥ 0.707? no → 0
	factory, err := NewFrequencyFactory(f, model.Help{})
	if err != nil {
		t.Fatal(err)
	}
	e := testutil.RunSchedule(t, dynamic.NewStatic(graph.Ring(3)), model.OutdegreeAware,
		testutil.Inputs(vals...), factory, 400, 13)
	testutil.AllOutputsNear(t, e.Outputs(), 0, 0, "threshold predicate")
}

func TestGrowingGapsExploration(t *testing.T) {
	// §6 asks what happens to the outdegree-awareness results when no
	// finite dynamic diameter exists. On this benign growing-gap adversary
	// Push-Sum still converges (quiet rounds are identity matrices, and
	// contraction recurs at every communication round); the open question
	// concerns adversarial schedules, which this does not settle — see
	// EXPERIMENTS.md.
	n := 5
	vals := []float64{2, 4, 6, 8, 10}
	s := &dynamic.GrowingGaps{Base: dynamic.NewStatic(graph.BidirectionalRing(n))}
	e := testutil.RunSchedule(t, s, model.OutdegreeAware, testutil.Inputs(vals...),
		NewAverageFactory(), 0, 4)
	res, err := engine.RunUntilClose(e, 6.0, model.Euclid, 1e-4, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Push-Sum did not converge under growing gaps (max err %g)", res.MaxErr)
	}
}
