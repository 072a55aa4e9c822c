// Package funcs implements the function classes at the heart of the paper's
// characterization (§2.3): set-based ⊊ frequency-based ⊊ multiset-based
// functions of a distributed input, a library of canonical representatives
// (max, average, sum, threshold-frequency predicates Φ_r^ω, …), a black-box
// classifier, and the δ-continuity-in-frequency test of §5.4.
//
// Inputs are multisets over Ω = float64: by Lemma 3.3 every computable
// function is multiset-based, so a multiset argument loses no generality.
package funcs

import (
	"fmt"
	"math"
	"sort"

	"anonnet/internal/multiset"
)

// Class orders the three function classes of §2.3 by inclusion.
type Class int

// The classes, smallest first.
const (
	// SetBased functions depend only on the set of input values (max, min).
	SetBased Class = iota + 1
	// FrequencyBased functions depend on values and their relative
	// frequencies but not multiplicities (average, mode, quantiles,
	// threshold predicates).
	FrequencyBased
	// MultisetBased functions depend on the full multiset (sum, count) —
	// the largest class computable by any anonymous network (Lemma 3.3).
	MultisetBased
)

// String names the class as the paper does.
func (c Class) String() string {
	switch c {
	case SetBased:
		return "set-based"
	case FrequencyBased:
		return "frequency-based"
	case MultisetBased:
		return "multiset-based"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Contains reports class inclusion: every set-based function is
// frequency-based, every frequency-based function is multiset-based.
func (c Class) Contains(other Class) bool { return other <= c }

// Args is a distributed input: the multiset [ω_1, …, ω_n].
type Args = multiset.Multiset[float64]

// Func is a function f : ⋃_n Ω^n → ℝ that is invariant under permutation
// (multiset-based), annotated with the smallest class it belongs to.
type Func struct {
	// Name identifies the function in reports.
	Name string
	// Class is the smallest of the three classes containing the function.
	Class Class
	// Eval computes f on a non-empty multiset of arguments.
	Eval func(args *Args) float64

	// onSet, when non-nil, is the definition of a set-based f on its
	// support given as a sorted, duplicate-free slice; Eval is derived
	// from it, so each such function's logic exists exactly once.
	onSet func(sorted []float64) float64
}

// FromVector evaluates f on a plain input vector.
func (f Func) FromVector(v []float64) float64 {
	return f.Eval(multiset.New(v...))
}

// EvalSet evaluates f on a set of arguments given as a sorted,
// duplicate-free slice (each value with multiplicity 1 — immaterial for
// a set-based f). It uses f's set definition when f has one and falls
// back to Eval on the equivalent multiset otherwise. The slice is only
// read.
func (f Func) EvalSet(sorted []float64) float64 {
	if f.onSet != nil {
		return f.onSet(sorted)
	}
	return f.Eval(multiset.New(sorted...))
}

// setBased builds a set-based Func from its definition on a sorted,
// duplicate-free support; Eval sorts the multiset's support and applies
// the same definition.
func setBased(name string, def func(sorted []float64) float64) Func {
	return Func{Name: name, Class: SetBased, onSet: def, Eval: func(a *Args) float64 {
		return def(sortedSupport(a))
	}}
}

// sortedSupport returns the distinct values of a in ascending order
// (sort.Float64s order: NaNs first). Evaluators iterate it instead of the
// multiset's map so that floating-point sums add their terms in one
// fixed order and produce bit-identical results from run to run.
func sortedSupport(a *Args) []float64 {
	s := a.Support()
	sort.Float64s(s)
	return s
}

// setMax and setMin read the extremes of a sorted support. A NaN sorts
// first and, as with math.Max and math.Min, poisons the result.
func setMax(s []float64) float64 {
	switch {
	case len(s) == 0:
		return math.Inf(-1)
	case math.IsNaN(s[0]):
		return s[0]
	}
	return s[len(s)-1]
}

func setMin(s []float64) float64 {
	if len(s) == 0 {
		return math.Inf(1)
	}
	return s[0]
}

// Max returns the maximum function, the canonical set-based example.
func Max() Func { return setBased("max", setMax) }

// Min returns the minimum function (set-based).
func Min() Func { return setBased("min", setMin) }

// SupportSize returns |{ω_1, …, ω_n}| (set-based).
func SupportSize() Func {
	return setBased("support-size", func(s []float64) float64 { return float64(len(s)) })
}

// Range returns max − min (set-based).
func Range() Func {
	return setBased("range", func(s []float64) float64 { return setMax(s) - setMin(s) })
}

// Average returns the mean (ω_1 + … + ω_n)/n, the paper's canonical
// frequency-based function.
func Average() Func {
	return Func{Name: "average", Class: FrequencyBased, Eval: func(a *Args) float64 {
		s := 0.0
		for _, v := range sortedSupport(a) {
			s += v * float64(a.Count(v))
		}
		return s / float64(a.Len())
	}}
}

// FrequencyOf returns ν_v(ω), the relative frequency of ω (frequency-based).
func FrequencyOf(omega float64) Func {
	return Func{Name: fmt.Sprintf("freq(%g)", omega), Class: FrequencyBased, Eval: func(a *Args) float64 {
		return float64(a.Count(omega)) / float64(a.Len())
	}}
}

// ThresholdFreq returns the threshold frequency predicate Φ_r^ω of §5.4:
// 1 if ν_v(ω) ≥ r, else 0. It is frequency-based; it is δ₀-continuous in
// frequency iff r is irrational.
func ThresholdFreq(omega, r float64) Func {
	return Func{Name: fmt.Sprintf("Φ[%g≥%g]", omega, r), Class: FrequencyBased, Eval: func(a *Args) float64 {
		if float64(a.Count(omega))/float64(a.Len()) >= r {
			return 1
		}
		return 0
	}}
}

// Mode returns the most frequent value, ties resolved to the smallest —
// frequency-based: it depends on relative frequencies only.
func Mode() Func {
	return Func{Name: "mode", Class: FrequencyBased, Eval: func(a *Args) float64 {
		best, bestCount := math.Inf(1), -1
		for _, v := range sortedSupport(a) {
			if c := a.Count(v); c > bestCount {
				best, bestCount = v, c
			}
		}
		return best
	}}
}

// Median returns the lower median of the sorted input (frequency-based:
// quantiles are determined by the frequency function).
func Median() Func {
	return Func{Name: "median", Class: FrequencyBased, Eval: func(a *Args) float64 {
		elems := a.Elems()
		sort.Float64s(elems)
		return elems[(len(elems)-1)/2]
	}}
}

// Variance returns the population variance Σ(ω_i − μ)²/n — frequency-based:
// both moments are determined by the frequency function.
func Variance() Func {
	return Func{Name: "variance", Class: FrequencyBased, Eval: func(a *Args) float64 {
		mu := Average().Eval(a)
		s := 0.0
		for _, v := range sortedSupport(a) {
			d := v - mu
			s += d * d * float64(a.Count(v))
		}
		return s / float64(a.Len())
	}}
}

// GeometricMean returns (Πω_i)^{1/n} for positive inputs (frequency-based);
// non-positive inputs yield NaN, in line with the real-valued definition.
func GeometricMean() Func {
	return Func{Name: "geomean", Class: FrequencyBased, Eval: func(a *Args) float64 {
		s := 0.0
		for _, v := range sortedSupport(a) {
			s += math.Log(v) * float64(a.Count(v))
		}
		return math.Exp(s / float64(a.Len()))
	}}
}

// Sum returns ω_1 + … + ω_n, the paper's canonical multiset-based function
// that is not frequency-based.
func Sum() Func {
	return Func{Name: "sum", Class: MultisetBased, Eval: func(a *Args) float64 {
		s := 0.0
		for _, v := range sortedSupport(a) {
			s += v * float64(a.Count(v))
		}
		return s
	}}
}

// Count returns n, the network size (multiset-based; counting is the
// classic application of the leader variants of §4.5/§5.5).
func Count() Func {
	return Func{Name: "count", Class: MultisetBased, Eval: func(a *Args) float64 {
		return float64(a.Len())
	}}
}

// MultiplicityOf returns |v⁻¹(ω)|, the absolute multiplicity of ω
// (multiset-based).
func MultiplicityOf(omega float64) Func {
	return Func{Name: fmt.Sprintf("mult(%g)", omega), Class: MultisetBased, Eval: func(a *Args) float64 {
		return float64(a.Count(omega))
	}}
}

// Catalog returns the library of named functions used across the
// experiments, covering each class.
func Catalog() []Func {
	return []Func{
		Min(), Max(), SupportSize(), Range(),
		Average(), Mode(), Median(), Variance(), GeometricMean(),
		FrequencyOf(1), ThresholdFreq(1, math.Sqrt2/3),
		Sum(), Count(), MultiplicityOf(1),
	}
}
