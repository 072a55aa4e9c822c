package funcs

import (
	"math"
	"math/rand"
	"testing"

	"anonnet/internal/multiset"
)

func args(vals ...float64) *Args { return multiset.New(vals...) }

func TestClassOrdering(t *testing.T) {
	if !MultisetBased.Contains(SetBased) || !MultisetBased.Contains(FrequencyBased) {
		t.Fatal("multiset-based must contain the smaller classes")
	}
	if !FrequencyBased.Contains(SetBased) {
		t.Fatal("frequency-based must contain set-based")
	}
	if SetBased.Contains(FrequencyBased) || FrequencyBased.Contains(MultisetBased) {
		t.Fatal("class inclusion must be strict")
	}
	for _, c := range []Class{SetBased, FrequencyBased, MultisetBased} {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
}

func TestCatalogEvaluations(t *testing.T) {
	in := args(1, 1, 2, 7)
	cases := []struct {
		f    Func
		want float64
	}{
		{Min(), 1},
		{Max(), 7},
		{SupportSize(), 3},
		{Range(), 6},
		{Average(), 2.75},
		{Mode(), 1},
		{Median(), 1}, // lower median of (1,1,2,7)
		{FrequencyOf(1), 0.5},
		{ThresholdFreq(1, 0.4), 1},
		{ThresholdFreq(1, 0.6), 0},
		{Sum(), 11},
		{Count(), 4},
		{MultiplicityOf(1), 2},
	}
	for _, c := range cases {
		if got := c.f.Eval(in); got != c.want {
			t.Errorf("%s(1,1,2,7) = %v, want %v", c.f.Name, got, c.want)
		}
	}
}

func TestFromVector(t *testing.T) {
	if got := Sum().FromVector([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("FromVector = %v, want 6", got)
	}
}

func TestDeclaredClassesAreMinimal(t *testing.T) {
	// Every catalog function's declared class must match black-box
	// classification on a generic universe.
	universe := []float64{1, 2, 3, 5}
	rng := rand.New(rand.NewSource(9))
	for _, f := range Catalog() {
		got := Classify(f, universe, 200, rng)
		if got != f.Class {
			t.Errorf("%s: classified as %v, declared %v", f.Name, got, f.Class)
		}
	}
}

func TestClassifyDegenerate(t *testing.T) {
	if got := Classify(Sum(), nil, 10, rand.New(rand.NewSource(1))); got != MultisetBased {
		t.Fatalf("degenerate classify = %v, want multiset-based fallback", got)
	}
}

func TestModeTieBreak(t *testing.T) {
	if got := Mode().Eval(args(2, 2, 1, 1)); got != 1 {
		t.Fatalf("mode tie = %v, want 1 (smallest)", got)
	}
}

func TestFrequencyInvariance(t *testing.T) {
	// Frequency-based functions agree on scaled multisets; sum does not.
	base := args(1, 2, 2)
	for _, f := range []Func{Average(), Mode(), Median(), FrequencyOf(2)} {
		if f.Eval(base) != f.Eval(base.Scale(4)) {
			t.Errorf("%s not scale-invariant", f.Name)
		}
	}
	if Sum().Eval(base) == Sum().Eval(base.Scale(4)) {
		t.Error("sum unexpectedly scale-invariant")
	}
}

func TestSetInvariance(t *testing.T) {
	a, b := args(1, 5, 5, 5), args(1, 1, 1, 5)
	for _, f := range []Func{Min(), Max(), SupportSize(), Range()} {
		if f.Eval(a) != f.Eval(b) {
			t.Errorf("%s not set-invariant", f.Name)
		}
	}
	if Average().Eval(a) == Average().Eval(b) {
		t.Error("average unexpectedly set-invariant")
	}
}

func TestContinuousInFrequency(t *testing.T) {
	m := args(1, 1, 2, 2, 2, 3)
	if !ContinuousInFrequency(Average(), m, false) {
		t.Error("average should be continuous in frequency")
	}
	// Threshold at a rational hit exactly by ν: discontinuous under the
	// discrete metric (the paper: Φ continuous iff r irrational).
	atBoundary := args(1, 1, 2) // ν(1) = 2/3
	if ContinuousInFrequency(ThresholdFreq(1, 2.0/3), atBoundary, true) {
		t.Error("rational-threshold predicate at the boundary should be discontinuous")
	}
	if !ContinuousInFrequency(ThresholdFreq(1, math.Sqrt2/2), atBoundary, true) {
		t.Error("irrational-threshold predicate should be continuous at this input")
	}
	if !ContinuousInFrequency(Average(), args(5), false) {
		t.Error("single-value input is trivially continuous")
	}
}

func TestVarianceAndGeometricMean(t *testing.T) {
	in := args(1, 1, 4)
	if got := Variance().Eval(in); math.Abs(got-2) > 1e-12 {
		t.Fatalf("variance(1,1,4) = %v, want 2", got)
	}
	if got := GeometricMean().Eval(args(2, 8)); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %v, want 4", got)
	}
	// Frequency invariance.
	for _, f := range []Func{Variance(), GeometricMean()} {
		if math.Abs(f.Eval(in)-f.Eval(in.Scale(3))) > 1e-12 {
			t.Errorf("%s not scale-invariant", f.Name)
		}
	}
}

func TestEvalSetMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := []float64{-4, -1.5, 0, 0.5, 2, 3, 10}
	for _, f := range Catalog() {
		if f.Class == SetBased && f.onSet == nil {
			t.Errorf("%s: set-based catalog function without a set definition", f.Name)
		}
		for trial := 0; trial < 300; trial++ {
			var sorted []float64
			for _, v := range universe {
				if rng.Intn(2) == 0 {
					continue
				}
				if v == 0 && rng.Intn(2) == 0 {
					v = math.Copysign(0, -1)
				}
				sorted = append(sorted, v)
			}
			if len(sorted) == 0 {
				continue
			}
			// The multiset repeats each value: a set-based f cannot tell.
			var elems []float64
			for _, v := range sorted {
				for k := rng.Intn(3); k >= 0; k-- {
					elems = append(elems, v)
				}
			}
			want := f.Eval(args(elems...))
			if f.Class != SetBased {
				want = f.Eval(args(sorted...))
			}
			got := f.EvalSet(sorted)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: EvalSet(%v) = %v, Eval = %v", f.Name, sorted, got, want)
			}
		}
	}
}
