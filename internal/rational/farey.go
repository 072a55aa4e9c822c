package rational

import (
	"fmt"
	"math"
)

// bestApproxFrac finds the best approximation of x ∈ [0, 1) with
// denominator ≤ maxDen by walking the continued-fraction convergents of x
// and, when the next convergent's denominator would overshoot, comparing
// the deepest admissible semiconvergent against the last convergent.
// Convergents and semiconvergents are in lowest terms (consecutive
// convergents h/k satisfy h₁k₂ − h₂k₁ = ±1), so the pair needs no gcd.
func bestApproxFrac(x float64, maxDen int) (p, q int) {
	h2, k2 := 0, 1 // convergent h_{-2}/k_{-2}
	h1, k1 := 1, 0 // convergent h_{-1}/k_{-1}
	rem := x
	for i := 0; i < 64; i++ {
		ai := int(math.Floor(rem))
		h := ai*h1 + h2
		k := ai*k1 + k2
		if k > maxDen {
			// k1 ≥ 1 here: the first convergent has denominator 1 ≤ maxDen,
			// so this branch is unreachable before h1/k1 is a real
			// convergent.
			t := (maxDen - k2) / k1
			sh, sk := t*h1+h2, t*k1+k2
			if sk >= 1 && math.Abs(x-float64(sh)/float64(sk)) < math.Abs(x-float64(h1)/float64(k1)) {
				return sh, sk
			}
			return h1, k1
		}
		h2, k2, h1, k1 = h1, k1, h, k
		frac := rem - float64(ai)
		if frac < 1e-12 {
			break
		}
		rem = 1 / frac
	}
	return h1, k1
}

// RoundToQN rounds x to the nearest element p/q of
// ℚ_N = {p/q : 0 ≤ p ≤ q ≤ N} (§5.4): the best approximation with
// denominator ≤ N, clamped to [0, 1], in lowest terms (0 is 0/1). Two
// distinct elements of ℚ_N are at distance ≥ 1/N², so once x is within
// 1/(2N²) of a true frequency the rounding is exact and stays exact.
func RoundToQN(x float64, n int) (p, q int64) {
	if n < 1 {
		panic(fmt.Sprintf("rational: RoundToQN: N %d, want ≥ 1", n))
	}
	if math.IsNaN(x) {
		panic("rational: RoundToQN: NaN")
	}
	if x <= 0 {
		return 0, 1
	}
	if x >= 1 {
		return 1, 1
	}
	hp, hq := bestApproxFrac(x, n)
	return int64(hp), int64(hq)
}
