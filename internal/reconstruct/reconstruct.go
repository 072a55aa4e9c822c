// Package reconstruct turns converging per-value frequency estimates into
// the value multisets that functions are evaluated on — the output side of
// §5.4 and §5.5, shared by the Push-Sum and Metropolis frequency
// algorithms.
package reconstruct

import (
	"fmt"
	"math"
	"slices"

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

// Pair is one distinct value of a reconstructed multiset with its
// multiplicity. Pairs are comparable: two pair slices that are equal
// element by element describe equal multisets.
type Pair struct {
	Value float64
	Count int
}

// FromHelp reconstructs the multiset with the strongest help: Counts
// scaled by ℓ leaders (§5.5, x[ω] → multiplicity(ω)/ℓ) or by the size n
// (Cor. 5.4), Rounded in ℚ_N for a bound N (Cor. 5.3), else Approximate
// with the highly divisible denominator 360360 (Cor. 5.5).
//
// Every reconstruction takes the quotient x[i] of each value w[i], with w
// ascending and duplicate-free, and appends the multiset's pairs in
// ascending value order to dst[:0]; it reports false when no multiset
// can be formed.
func FromHelp(dst []Pair, w, x []float64, h model.Help) ([]Pair, bool) {
	switch {
	case h.Leaders > 0:
		return Counts(dst, w, x, float64(h.Leaders))
	case h.KnownN > 0:
		return Counts(dst, w, x, float64(h.KnownN))
	case h.BoundN > 0:
		return Rounded(dst, w, x, h.BoundN)
	default:
		return Approximate(dst, w, x, 360360)
	}
}

// Approximate builds an ⟨x̂⟩-frequenced multiset from raw quotients,
// normalized and discretized with the fixed denominator q (§5.4's x̂
// construction): each value gets ⌊x̂[ω]·q⌉ slots. For a function that is
// δ-continuous in frequency, evaluating on this multiset converges to f(v)
// as the quotients converge (Cor. 5.5).
func Approximate(dst []Pair, w, x []float64, q int) ([]Pair, bool) {
	total := 0.0
	for _, v := range x { // ascending values: the total's bits feed every count
		if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
			return dst[:0], false
		}
		total += v
	}
	if total <= 0 {
		return dst[:0], false
	}
	dst = dst[:0]
	for i, v := range x {
		if c := int(math.Round(v / total * float64(q))); c > 0 {
			dst = append(dst, Pair{Value: w[i], Count: c})
		}
	}
	return dst, len(dst) > 0
}

// Rounded rounds each quotient to the nearest element of ℚ_N (N a known
// bound ≥ n) and assembles the exact ⟨ν⟩ vector (Cor. 5.3): once every
// quotient is within 1/(2N²) of the true frequency the result is exactly ν
// and never changes again.
func Rounded(dst []Pair, w, x []float64, n int) ([]Pair, bool) {
	dst = dst[:0]
	dens := make([]int64, 0, 16) // stays on the stack for up to 16 values
	l := int64(1)
	for i, v := range x {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return dst, false
		}
		p, q := rational.RoundToQN(v, n)
		if p == 0 {
			continue // rounds to zero: treated as absent
		}
		dst = append(dst, Pair{Value: w[i], Count: int(p)})
		dens = append(dens, q)
		l = l / rational.GCD64(l, q) * q
		if l > 1<<40 {
			return dst, false
		}
	}
	for i := range dst {
		dst[i].Count *= int(l / dens[i])
	}
	return dst, len(dst) > 0
}

// Counts recovers integer multiplicities as ⌊scale·x[ω]⌉ — scale = n for
// Cor. 5.4, scale = ℓ for the leader variant of §5.5.
func Counts(dst []Pair, w, x []float64, scale float64) ([]Pair, bool) {
	dst = dst[:0]
	for i, v := range x {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if c := int(math.Round(scale * v)); c > 0 {
			dst = append(dst, Pair{Value: w[i], Count: c})
		}
	}
	return dst, len(dst) > 0
}

// Memo is a frequency agent's output side. Once the estimates are close
// enough the reconstructed multiset stops changing (with a bound N, every
// quotient within 1/(2N²) of its frequency fixes ⟨ν⟩ for good, Cor. 5.3),
// and f is deterministic on equal multisets, so f need only be evaluated
// when the pairs differ from the last successful reconstruction. The zero
// Memo has seen no reconstruction.
type Memo struct {
	last, next []Pair
}

// Update reconstructs from the quotients x of the ascending values w under
// h (FromHelp) and reports whether its pairs differ from those of the last
// successful reconstruction; Args then returns the new multiset. A failed
// reconstruction reports false and keeps the last one.
func (m *Memo) Update(w, x []float64, h model.Help) bool {
	next, ok := FromHelp(m.next, w, x, h)
	m.next = next
	if !ok || slices.Equal(next, m.last) {
		return false
	}
	m.last, m.next = next, m.last
	return true
}

// Args returns the last successful reconstruction as a multiset.
func (m *Memo) Args() *Args {
	a := multiset.New[float64]()
	for _, p := range m.last {
		a.AddN(p.Value, p.Count)
	}
	return a
}
