// Package reconstruct turns converging per-value frequency estimates into
// the value multisets that functions are evaluated on — the output side of
// §5.4 and §5.5, shared by the Push-Sum and Metropolis frequency
// algorithms.
package reconstruct

import (
	"fmt"
	"math"
	"sort"

	"anonnet/internal/funcs"
	"anonnet/internal/model"
	"anonnet/internal/multiset"
	"anonnet/internal/rational"
)

// Args is a value multiset.
type Args = multiset.Multiset[float64]

// Check rejects negative help, and a function beyond frequency-based
// when the help does not fix multiplicities (Theorem 4.1, Cor. 5.3, 5.5).
func Check(f funcs.Func, h model.Help) error {
	if err := h.Validate(); err != nil {
		return err
	}
	if !h.Counts() && !funcs.FrequencyBased.Contains(f.Class) {
		return fmt.Errorf("%q is %v; without the size or a leader count only frequency-based functions are computable", f.Name, f.Class)
	}
	return nil
}

// FromHelp reconstructs the multiset with the strongest help: Counts
// scaled by ℓ leaders (§5.5, x[ω] → multiplicity(ω)/ℓ) or by the size n
// (Cor. 5.4), Rounded in ℚ_N for a bound N (Cor. 5.3), else Approximate
// with the highly divisible denominator 360360 (Cor. 5.5).
func FromHelp(x map[float64]float64, h model.Help) (*Args, bool) {
	switch {
	case h.Leaders > 0:
		return Counts(x, float64(h.Leaders))
	case h.KnownN > 0:
		return Counts(x, float64(h.KnownN))
	case h.BoundN > 0:
		return Rounded(x, h.BoundN)
	default:
		return Approximate(x, 360360)
	}
}

// Approximate builds an ⟨x̂⟩-frequenced multiset from raw quotients,
// normalized and discretized with the fixed denominator q (§5.4's x̂
// construction): each value gets ⌊x̂[ω]·q⌉ slots. For a function that is
// δ-continuous in frequency, evaluating on this multiset converges to f(v)
// as the quotients converge (Cor. 5.5).
func Approximate(x map[float64]float64, q int) (*Args, bool) {
	keys := sortedKeys(x)
	total := 0.0
	for _, w := range keys { // fixed order: the total's bits feed every count
		v := x[w]
		if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
			return nil, false
		}
		total += v
	}
	if total <= 0 {
		return nil, false
	}
	m := multiset.New[float64]()
	for _, w := range keys {
		m.AddN(w, int(math.Round(x[w]/total*float64(q))))
	}
	return m, m.Len() > 0
}

// Rounded rounds each quotient to the nearest element of ℚ_N (N a known
// bound ≥ n) and assembles the exact ⟨ν⟩ vector (Cor. 5.3): once every
// quotient is within 1/(2N²) of the true frequency the result is exactly ν
// and never changes again.
func Rounded(x map[float64]float64, n int) (*Args, bool) {
	type vf struct {
		w    float64
		p, q int64
	}
	vals := make([]vf, 0, len(x))
	l := int64(1)
	for w, v := range x {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, false
		}
		r := rational.RoundToQN(v, n)
		if r.Sign() == 0 {
			continue // rounds to zero: treated as absent
		}
		vals = append(vals, vf{w: w, p: r.Num().Int64(), q: r.Denom().Int64()})
		l = lcm64(l, r.Denom().Int64())
		if l > 1<<40 {
			return nil, false
		}
	}
	if len(vals) == 0 {
		return nil, false
	}
	m := multiset.New[float64]()
	for _, v := range vals {
		m.AddN(v.w, int(v.p*(l/v.q)))
	}
	return m, m.Len() > 0
}

// Counts recovers integer multiplicities as ⌊scale·x[ω]⌉ — scale = n for
// Cor. 5.4, scale = ℓ for the leader variant of §5.5.
func Counts(x map[float64]float64, scale float64) (*Args, bool) {
	m := multiset.New[float64]()
	for _, w := range sortedKeys(x) {
		v := x[w]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if c := int(math.Round(scale * v)); c > 0 {
			m.AddN(w, c)
		}
	}
	return m, m.Len() > 0
}

// sortedKeys returns the values of x in ascending order, so that sums
// over the estimates add their terms in one fixed order and repeat runs
// agree to the bit.
func sortedKeys(x map[float64]float64) []float64 {
	keys := make([]float64, 0, len(x))
	for w := range x {
		keys = append(keys, w)
	}
	sort.Float64s(keys)
	return keys
}

func lcm64(a, b int64) int64 { return a / gcd64(a, b) * b }

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
