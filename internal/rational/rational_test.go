package rational

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRankAndKernelKnownSystems(t *testing.T) {
	// Star system: M = [[-4, 1], [4, -1]].
	m := FromInts([][]int{{-4, 1}, {4, -1}})
	if got := m.Rank(); got != 1 {
		t.Fatalf("rank = %d, want 1", got)
	}
	z, err := m.IntegerKernelVector()
	if err != nil {
		t.Fatal(err)
	}
	if len(z) != 2 || z[0] != 1 || z[1] != 4 {
		t.Fatalf("z = %v, want [1 4]", z)
	}
}

func TestIntegerKernelVectorCoprime(t *testing.T) {
	// Kernel spanned by (2, 4, 6) → coprime form (1, 2, 3).
	// Rows: x2 = 2·x1, x3 = 3·x1.
	m := FromInts([][]int{
		{2, -1, 0},
		{3, 0, -1},
		{0, 0, 0},
	})
	z, err := m.IntegerKernelVector()
	if err != nil {
		t.Fatal(err)
	}
	if z[0] != 1 || z[1] != 2 || z[2] != 3 {
		t.Fatalf("z = %v, want [1 2 3]", z)
	}
}

func TestIntegerKernelVectorRejects(t *testing.T) {
	if _, err := FromInts([][]int{{1, 0}, {0, 1}}).IntegerKernelVector(); err == nil {
		t.Fatal("trivial kernel accepted")
	}
	if _, err := FromInts([][]int{{0, 0}, {0, 0}}).IntegerKernelVector(); err == nil {
		t.Fatal("2-dimensional kernel accepted")
	}
	// Kernel vector with mixed signs: x1 + x2 = 0.
	if _, err := FromInts([][]int{{1, 1}, {0, 0}}).IntegerKernelVector(); err == nil {
		t.Fatal("mixed-sign kernel accepted")
	}
}

func TestKernelVectorsAnnihilate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		grid := make([][]int, n)
		for i := range grid {
			grid[i] = make([]int, n)
			for j := range grid[i] {
				grid[i][j] = rng.Intn(7) - 3
			}
		}
		m := FromInts(grid)
		for _, vec := range m.Kernel() {
			img := m.Mul(vec)
			for i, x := range img {
				if x.Sign() != 0 {
					t.Fatalf("trial %d: kernel vector not annihilated at row %d: %v", trial, i, img)
				}
			}
		}
	}
}

func TestKernelDimensionPlusRank(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		grid := make([][]int, n)
		for i := range grid {
			grid[i] = make([]int, n)
			for j := range grid[i] {
				grid[i][j] = rng.Intn(5) - 2
			}
		}
		m := FromInts(grid)
		if m.Rank()+len(m.Kernel()) != n {
			t.Fatalf("trial %d: rank %d + nullity %d ≠ %d", trial, m.Rank(), len(m.Kernel()), n)
		}
	}
}

func TestScaleToCoprimeInts(t *testing.T) {
	v := []*big.Rat{big.NewRat(1, 2), big.NewRat(3, 4), big.NewRat(5, 2)}
	z, err := ScaleToCoprimeInts(v)
	if err != nil {
		t.Fatal(err)
	}
	// (1/2, 3/4, 5/2) × 4 = (2, 3, 10), already coprime.
	if z[0] != 2 || z[1] != 3 || z[2] != 10 {
		t.Fatalf("z = %v, want [2 3 10]", z)
	}
	// Negative vectors scale to positive.
	neg := []*big.Rat{big.NewRat(-2, 1), big.NewRat(-4, 1)}
	z, err = ScaleToCoprimeInts(neg)
	if err != nil {
		t.Fatal(err)
	}
	if z[0] != 1 || z[1] != 2 {
		t.Fatalf("z = %v, want [1 2]", z)
	}
}

// BestApprox returns a rational p/q with 1 ≤ q ≤ maxDen closest to x, as a
// normalized big.Rat. It is the reference RoundToQN is checked against:
// the sign and the whole part are split off, the fractional part goes
// through bestApproxFrac, and big.Rat reduces the result independently.
func BestApprox(x float64, maxDen int) *big.Rat {
	if maxDen < 1 {
		panic(fmt.Sprintf("rational: BestApprox: maxDen %d, want ≥ 1", maxDen))
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("rational: BestApprox: non-finite x %v", x))
	}
	neg := x < 0
	if neg {
		x = -x
	}
	whole := math.Floor(x)
	p, q := bestApproxFrac(x-whole, maxDen)
	r := new(big.Rat).SetFrac64(int64(whole)*int64(q)+int64(p), int64(q))
	if neg {
		r.Neg(r)
	}
	return r
}

// roundToQNRat is the big.Rat rounding to ℚ_N: BestApprox clamped to
// [0, 1].
func roundToQNRat(x float64, n int) *big.Rat {
	if x <= 0 {
		return new(big.Rat)
	}
	if x >= 1 {
		return big.NewRat(1, 1)
	}
	return BestApprox(x, n)
}

func TestBestApproxExactRationals(t *testing.T) {
	for _, c := range []struct {
		x    float64
		den  int
		want *big.Rat
	}{
		{0.5, 10, big.NewRat(1, 2)},
		{1.0 / 3, 10, big.NewRat(1, 3)},
		{2.0 / 7, 10, big.NewRat(2, 7)},
		{0, 5, big.NewRat(0, 1)},
		{1, 5, big.NewRat(1, 1)},
		{-0.25, 8, big.NewRat(-1, 4)},
		{2.75, 8, big.NewRat(11, 4)},
	} {
		got := BestApprox(c.x, c.den)
		if got.Cmp(c.want) != 0 {
			t.Errorf("BestApprox(%v, %d) = %v, want %v", c.x, c.den, got, c.want)
		}
	}
}

func TestBestApproxPi(t *testing.T) {
	// Classic convergents of π: 22/7 and 355/113.
	if got := BestApprox(math.Pi, 10); got.Cmp(big.NewRat(22, 7)) != 0 {
		t.Errorf("π with den ≤ 10: got %v, want 22/7", got)
	}
	if got := BestApprox(math.Pi, 200); got.Cmp(big.NewRat(355, 113)) != 0 {
		t.Errorf("π with den ≤ 200: got %v, want 355/113", got)
	}
}

// bruteBest is the exhaustive reference for small denominators.
func bruteBest(x float64, maxDen int) *big.Rat {
	best := big.NewRat(0, 1)
	bestErr := math.Inf(1)
	for q := 1; q <= maxDen; q++ {
		p := int(math.Round(x * float64(q)))
		err := math.Abs(x - float64(p)/float64(q))
		if err < bestErr-1e-15 {
			bestErr = err
			best = big.NewRat(int64(p), int64(q))
		}
	}
	return best
}

func TestQuickBestApproxMatchesBruteForce(t *testing.T) {
	f := func(num uint16, den uint16, maxDen uint8) bool {
		d := int(den%500) + 1
		x := float64(num%1000) / float64(d) / 1000 // x ∈ [0, 1)
		n := int(maxDen%30) + 1
		got := BestApprox(x, n)
		want := bruteBest(x, n)
		gv, _ := got.Float64()
		wv, _ := want.Float64()
		// Both must achieve the same (optimal) distance.
		return math.Abs(math.Abs(gv-x)-math.Abs(wv-x)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundToQNClamps(t *testing.T) {
	for _, c := range []struct {
		x            float64
		n            int
		wantP, wantQ int64
	}{
		{-0.3, 5, 0, 1}, // negative input clamps to 0
		{1.7, 5, 1, 1},  // input > 1 clamps to 1
		{math.Inf(-1), 5, 0, 1},
		{math.Inf(1), 5, 1, 1},
		{0.332, 6, 1, 3},
		{1e-13, 6, 0, 1}, // rounds to zero inside (0, 1)
		{0.9999, 6, 1, 1},
	} {
		if p, q := RoundToQN(c.x, c.n); p != c.wantP || q != c.wantQ {
			t.Errorf("RoundToQN(%v, %d) = %d/%d, want %d/%d", c.x, c.n, p, q, c.wantP, c.wantQ)
		}
	}
}

func TestRoundToQNExactnessWindow(t *testing.T) {
	// §5.4: distinct elements of ℚ_N are ≥ 1/N² apart, so any estimate
	// within 1/(2N²) of a true frequency rounds to it exactly.
	n := 12
	window := 1 / (2 * float64(n) * float64(n))
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		q := 1 + rng.Intn(n)
		p := rng.Intn(q + 1)
		truth := big.NewRat(int64(p), int64(q))
		tf, _ := truth.Float64()
		noisy := tf + (rng.Float64()*2-1)*window*0.99
		gp, gq := RoundToQN(noisy, n)
		if gp != truth.Num().Int64() || gq != truth.Denom().Int64() {
			t.Fatalf("trial %d: RoundToQN(%v±, %d) = %d/%d, want %v", trial, tf, n, gp, gq, truth)
		}
	}
}

func TestBestApproxPanicsOnBadInput(t *testing.T) {
	for _, f := range []func(){
		func() { BestApprox(0.5, 0) },
		func() { BestApprox(math.NaN(), 5) },
		func() { BestApprox(math.Inf(1), 5) },
		func() { RoundToQN(0.5, 0) },
		func() { RoundToQN(math.NaN(), 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMatrixShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 1) did not panic")
		}
	}()
	NewMatrix(0, 1)
}

func TestCheckedInt64Helpers(t *testing.T) {
	const max = math.MaxInt64
	mul := []struct {
		a, b, want int64
		ok         bool
	}{
		{3, -4, -12, true}, {-3, -4, 12, true}, {0, math.MinInt64, 0, true},
		{max, 1, max, true}, {max, -1, -max, true}, {1 << 32, 1 << 31, 0, false},
		{1 << 32, 1<<31 - 1, (1<<31 - 1) << 32, true}, {math.MinInt64, 1, 0, false}, {-1 << 32, 1 << 31, 0, false},
	}
	for _, c := range mul {
		if got, ok := MulInt64(c.a, c.b); ok != c.ok || (ok && got != c.want) {
			t.Errorf("MulInt64(%d, %d) = %d, %v; want %d, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
	sub := []struct {
		a, b, want int64
		ok         bool
	}{
		{5, 7, -2, true}, {-max, 1, 0, false}, {max, -1, 0, false}, {-max, -max, 0, true}, {0, max, -max, true},
	}
	for _, c := range sub {
		if got, ok := subInt64(c.a, c.b); ok != c.ok || (ok && got != c.want) {
			t.Errorf("subInt64(%d, %d) = %d, %v; want %d, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
	if GCD64(0, 0) != 1 || GCD64(-12, 18) != 6 || GCD64(math.MinInt64, math.MinInt64) != 1 {
		t.Fatal("GCD64 edge cases")
	}
}

// TestIntegerKernelOverflowFallback pins that the fuzz seeds with entries
// near 2³¹ really overflow the int64 elimination, and that IntegerKernel
// then answers as the big.Rat path does.
func TestIntegerKernelOverflowFallback(t *testing.T) {
	overflowed := 0
	for _, grid := range [][][]int{
		{{1 << 31, -(1 << 30), 3}, {7, 1 << 31, -(1 << 29)}, {-(1 << 31), 5, 1 << 31}},
		fuzzGrid(overflowSeed(0x55)),
		fuzzGrid(overflowSeed(0x77)),
	} {
		if _, err := kernelInt64(grid); err == errOverflow {
			overflowed++
		}
		want, wantErr := FromInts(grid).IntegerKernelVector()
		got, gotErr := IntegerKernel(grid)
		if (gotErr == nil) != (wantErr == nil) || !equalInts(got, want) {
			t.Fatalf("grid %v: IntegerKernel %v (%v), big.Rat %v (%v)", grid, got, gotErr, want, wantErr)
		}
	}
	if overflowed == 0 {
		t.Fatal("no grid overflowed the int64 path; the fallback is untested")
	}
}

func TestIntegerKernelMatchesMatrix(t *testing.T) {
	grids := [][][]int{
		{{-1, 1}, {1, -1}},
		{{-2, 1, 1}, {1, -1, 0}, {1, 0, -1}},
		{{0, 0}, {0, 0}},
		{{1, 2}, {3, 4}},
		{{1, -1, 0}, {0, 0, 0}},
		{{-3, 2}, {3, -2}},
		{{1, 1}},
		// A later pivot row with pivot 4 rescales a row that already has
		// entries left of the pivot column: z = (1, 2, 3, 4).
		{{1, 0, 1, -1}, {0, 2, 0, -1}, {0, 0, 4, -3}},
	}
	for _, g := range grids {
		want, wantErr := FromInts(g).IntegerKernelVector()
		got, gotErr := IntegerKernel(g)
		if !equalInts(got, want) || (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("grid %v: IntegerKernel %v (%v), Matrix %v (%v)", g, got, gotErr, want, wantErr)
		}
	}
}
