package reconstruct

import (
	"math"
	"sort"
	"testing"

	"anonnet/internal/model"
)

// split lays a value → quotient map out as the ascending value slice and
// its aligned quotients, the form every reconstruction takes.
func split(x map[float64]float64) (w, q []float64) {
	for v := range x {
		w = append(w, v)
	}
	sort.Float64s(w)
	for _, v := range w {
		q = append(q, x[v])
	}
	return w, q
}

// counts maps each reconstructed value to its multiplicity.
func counts(pairs []Pair) map[float64]int {
	m := make(map[float64]int, len(pairs))
	for _, p := range pairs {
		m[p.Value] = p.Count
	}
	return m
}

func approximate(x map[float64]float64, q int) (map[float64]int, bool) {
	w, v := split(x)
	pairs, ok := Approximate(nil, w, v, q)
	return counts(pairs), ok
}

func rounded(x map[float64]float64, n int) (map[float64]int, bool) {
	w, v := split(x)
	pairs, ok := Rounded(nil, w, v, n)
	return counts(pairs), ok
}

func countsOf(x map[float64]float64, scale float64) (map[float64]int, bool) {
	w, v := split(x)
	pairs, ok := Counts(nil, w, v, scale)
	return counts(pairs), ok
}

func TestApproximate(t *testing.T) {
	m, ok := approximate(map[float64]float64{1: 0.5, 2: 0.25, 3: 0.25}, 360360)
	if !ok {
		t.Fatal("Approximate failed")
	}
	if m[1] != 2*m[2] || m[2] != m[3] {
		t.Fatalf("frequencies distorted: %v", m)
	}
	// Un-normalized quotients normalize.
	m2, ok := approximate(map[float64]float64{1: 1.0, 2: 0.5, 3: 0.5}, 360360)
	if !ok || m2[1] != 2*m2[2] {
		t.Fatalf("normalization failed: %v", m2)
	}
	if _, ok := approximate(map[float64]float64{1: math.Inf(1)}, 100); ok {
		t.Fatal("Approximate accepted an infinite quotient")
	}
	if _, ok := approximate(map[float64]float64{}, 100); ok {
		t.Fatal("Approximate accepted an empty map")
	}
	if _, ok := approximate(map[float64]float64{1: -0.5}, 100); ok {
		t.Fatal("Approximate accepted a negative quotient")
	}
}

func TestRoundedExact(t *testing.T) {
	// Noisy versions of ν = {1: 1/2, 2: 1/3, 7: 1/6} with N = 6.
	noisy := map[float64]float64{1: 0.4999, 2: 0.3334, 7: 0.1666}
	m, ok := rounded(noisy, 6)
	if !ok {
		t.Fatal("Rounded failed")
	}
	// Exact ⟨ν⟩: denominators lcm(2,3,6) = 6 → counts (3, 2, 1).
	if len(m) != 3 || m[1] != 3 || m[2] != 2 || m[7] != 1 {
		t.Fatalf("rounded multiset %v, want {1:3, 2:2, 7:1}", m)
	}
	if _, ok := rounded(map[float64]float64{1: math.NaN()}, 6); ok {
		t.Fatal("Rounded accepted NaN")
	}
	if _, ok := rounded(map[float64]float64{1: 0.001}, 6); ok {
		t.Fatal("all-zero rounding should report failure")
	}
}

func TestCounts(t *testing.T) {
	x := map[float64]float64{1: 0.501, 2: 0.332, 7: 0.167}
	m, ok := countsOf(x, 6)
	if !ok {
		t.Fatal("Counts failed")
	}
	if len(m) != 3 || m[1] != 3 || m[2] != 2 || m[7] != 1 {
		t.Fatalf("count multiset %v, want {1:3, 2:2, 7:1}", m)
	}
	// Infinite quotients (leader variant transient) are skipped.
	m2, ok := countsOf(map[float64]float64{1: math.Inf(1), 2: 0.5}, 6)
	if !ok || m2[1] != 0 || m2[2] != 3 {
		t.Fatalf("infinite quotient handling wrong: %v", m2)
	}
	if _, ok := countsOf(map[float64]float64{1: 0.01}, 6); ok {
		t.Fatal("all-zero counts should report failure")
	}
}

// TestPairsAscendingInBuffer pins the buffer contract: pairs come out in
// ascending value order, zero multiplicities are left out, and the
// caller's buffer is reused rather than grown.
func TestPairsAscendingInBuffer(t *testing.T) {
	w := []float64{-1, 0, 2.5, 9}
	x := []float64{0.25, 1e-9, 0.5, 0.25}
	buf := make([]Pair, 0, 4)
	for _, h := range []model.Help{{}, {BoundN: 4}, {KnownN: 4}, {Leaders: 4}} {
		pairs, ok := FromHelp(buf, w, x, h)
		if !ok {
			t.Fatalf("help %+v: reconstruction failed", h)
		}
		if &pairs[:1][0] != &buf[:1][0] {
			t.Errorf("help %+v: pairs did not reuse the buffer", h)
		}
		got := make([]float64, len(pairs))
		for i, p := range pairs {
			got[i] = p.Value
			if p.Count <= 0 {
				t.Errorf("help %+v: pair %v with a non-positive count", h, p)
			}
		}
		if want := []float64{-1, 2.5, 9}; !equalFloats(got, want) {
			t.Errorf("help %+v: values %v, want %v", h, got, want)
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMemoReportsChangesOnly drives a Memo through the four cases of an
// agent's round: a first success, an unchanged multiset, a failed
// reconstruction (the last multiset stays), and a change.
func TestMemoReportsChangesOnly(t *testing.T) {
	h := model.Help{BoundN: 6}
	w := []float64{1, 2}
	var m Memo
	step := func(x []float64, want bool, wantArgs map[float64]int) {
		t.Helper()
		if got := m.Update(w, x, h); got != want {
			t.Fatalf("Update(%v) = %v, want %v", x, got, want)
		}
		args := m.Args()
		if args.Len() == 0 && len(wantArgs) == 0 {
			return
		}
		for v, c := range wantArgs {
			if args.Count(v) != c {
				t.Fatalf("after Update(%v): Args %v, want %v", x, args, wantArgs)
			}
		}
		if args.Distinct() != len(wantArgs) {
			t.Fatalf("after Update(%v): Args %v, want %v", x, args, wantArgs)
		}
	}
	step([]float64{0.01, 0.02}, false, nil)                              // rounds to nothing
	step([]float64{0.49, 0.51}, true, map[float64]int{1: 1, 2: 1})       // first success
	step([]float64{0.5001, 0.4999}, false, map[float64]int{1: 1, 2: 1})  // same ⟨ν⟩
	step([]float64{math.NaN(), 0.5}, false, map[float64]int{1: 1, 2: 1}) // failure keeps it
	step([]float64{0.333, 0.667}, true, map[float64]int{1: 1, 2: 2})     // changed
}
