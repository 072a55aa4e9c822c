package core

import (
	"errors"
	"fmt"
	"math"

	"anonnet/internal/algorithms/freqcalc"
	"anonnet/internal/algorithms/metropolis"
	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/matrix"
	"anonnet/internal/model"
	"anonnet/internal/report"
)

// The paper's rate claims, regenerated as parameter sweeps (DESIGN.md
// §4). F1–F4 each have one measurement function, which the generated rate
// properties and the benchmarks call too; each figure sweeps its function
// over the published grid.

// A Figure is one rate sweep, named as cmd/figures selects it. Sweep
// returns the table measured so far and an error joining every point
// outside its bound, or the failure that stopped the sweep.
type Figure struct {
	Name  string
	Sweep func(seed int64) (*report.Table, error)
}

// Figures lists F1–F6 in print order.
func Figures() []Figure {
	return []Figure{
		{"pushsum-rate", pushSumFigure},
		{"minbase-rounds", minBaseFigure},
		{"metropolis-rate", metropolisFigure},
		{"exact-rounding", exactRoundingFigure},
		{"dobrushin", dobrushinFigure},
		{"growing-gaps", growingGapsFigure},
	}
}

// A Rate is one measured point of a rate figure: the rounds to
// ε-agreement, or the round from which the outputs never change again (-1
// when the run's budget did not suffice); Ref, the paper's rate expression
// at this point; and Bound, what the figure checks Rounds against.
type Rate struct {
	Rounds     int
	Ref, Bound float64
}

// Within reports whether the point meets its figure's bound.
func (r Rate) Within() bool { return r.Rounds >= 0 && float64(r.Rounds) <= r.Bound }

// LinearInputs gives agent i the value i: an aperiodic valuation, so the
// network has no small quotient. (With periodic inputs a ring R_n with
// period p | n behaves exactly like its quotient R_p — the lifting lemma
// in action — and a rate sweep would measure the quotient's size, not n.)
func LinearInputs(n int) []model.Input {
	out := make([]model.Input, n)
	for i := range out {
		out[i] = model.Input{Value: float64(i)}
	}
	return out
}

// PushSumRate is F1's measurement (Theorem 5.2): Push-Sum's rounds to
// ε-agreement on the average over s, a schedule of dynamic diameter d,
// against n²·D·ln(1/ε), with 1000 rounds of slack to measure an overshoot.
func PushSumRate(s dynamic.Schedule, d int, inputs []model.Input, eps float64, seed int64) (Rate, error) {
	n := len(inputs)
	bound := float64(n*n*d) * math.Log(1/eps)
	rounds, err := averageRounds(s, pushsum.NewAverageFactory(), inputs, eps, int(bound)+1000, seed)
	return Rate{Rounds: rounds, Ref: bound, Bound: bound}, err
}

// MinBaseRate is F2's measurement (§4.2): the round from which the static
// frequency computation of the average (freqcalc, outdegree awareness) on
// g never changes again, against n + D, with the extractor margin
// n + 3D + 4 of DESIGN.md §5 as bound.
func MinBaseRate(g *graph.Graph, inputs []model.Input, seed int64) (Rate, error) {
	n, d := g.N(), g.Diameter()
	factory, err := freqcalc.NewFactory(model.OutdegreeAware, funcs.Average(), model.Help{})
	if err != nil {
		return Rate{}, err
	}
	margin := n + 3*d + 4
	rounds, err := stabilizedRound(engine.Config{
		Schedule: dynamic.NewStatic(g), Kind: model.OutdegreeAware, Inputs: inputs, Factory: factory, Seed: seed,
	}, 2*margin+10)
	return Rate{Rounds: rounds, Ref: float64(n + d), Bound: float64(margin)}, err
}

// MetropolisRate is F3's measurement ([10]): standard Metropolis's rounds
// to ε-agreement on the average over the static bidirectional graph g,
// against n²·ln(1/ε). The bound is the 200 000-round budget; F3 also
// checks that the rounds grow with n.
func MetropolisRate(g *graph.Graph, inputs []model.Input, eps float64, seed int64) (Rate, error) {
	const budget = 200000
	factory, err := metropolis.NewFactory(metropolis.Standard, 0)
	if err != nil {
		return Rate{}, err
	}
	rounds, err := averageRounds(dynamic.NewStatic(g), factory, inputs, eps, budget, seed)
	n := float64(g.N())
	return Rate{Rounds: rounds, Ref: n * n * math.Log(1/eps), Bound: budget}, err
}

// ExactRoundingRate is F4's measurement (Corollary 5.3): the round from
// which the ℚ_N-rounded Push-Sum of the average with the bound boundN on
// the static graph g never changes again, against n²·D·ln N, with
// 2·n²·D·ln N + 200 as bound.
func ExactRoundingRate(g *graph.Graph, inputs []model.Input, boundN int, seed int64) (Rate, error) {
	n, d := g.N(), g.Diameter()
	factory, err := pushsum.NewFrequencyFactory(funcs.Average(), model.Help{BoundN: boundN})
	if err != nil {
		return Rate{}, err
	}
	ref := float64(n*n*d) * math.Log(float64(boundN))
	rounds, err := stabilizedRound(engine.Config{
		Schedule: dynamic.NewStatic(g), Kind: model.OutdegreeAware, Inputs: inputs, Factory: factory, Seed: seed,
	}, int(4*float64(n*n*d)*math.Log(float64(boundN)))+500)
	return Rate{Rounds: rounds, Ref: ref, Bound: 2*ref + 200}, err
}

// averageRounds runs factory on s until every output is within eps of the
// inputs' average: the rounds that took, or -1 past maxRounds.
func averageRounds(s dynamic.Schedule, factory model.Factory, inputs []model.Input, eps float64, maxRounds int, seed int64) (int, error) {
	res, err := runClose(engine.Config{Schedule: s, Kind: model.OutdegreeAware, Inputs: inputs, Factory: factory, Seed: seed},
		funcs.Average().FromVector(values(inputs)), eps, maxRounds)
	if err != nil || !res.Converged {
		return -1, err
	}
	return res.Rounds, nil
}

// stabilizedRound runs cfg for the whole budget and returns the first
// round from which the outputs never change again, or -1 when they still
// changed in the last round. Scanning the full budget is stricter than
// engine.RunUntilStable's patience window, which stops at the first quiet
// stretch.
func stabilizedRound(cfg engine.Config, budget int) (int, error) {
	e, err := engine.New(cfg)
	if err != nil {
		return -1, fmt.Errorf("engine: %w", err)
	}
	var prev []model.Value
	since := 1
	for t := 1; t <= budget; t++ {
		if err := e.Step(); err != nil {
			return -1, fmt.Errorf("run: round %d: %w", t, err)
		}
		cur := e.Outputs()
		for i := range prev {
			if model.Discrete(prev[i], cur[i]) != 0 {
				since = t
				break
			}
		}
		prev = cur
	}
	if since == budget && budget > 1 {
		return -1, nil
	}
	return since, nil
}

// pushSumFigure is F1: rings, complete graphs and split rings of 4–16
// agents, ε ∈ {10⁻², 10⁻⁴, 10⁻⁸}.
func pushSumFigure(seed int64) (*report.Table, error) {
	tb := report.NewTable("F1: Push-Sum ε-convergence vs O(n²·D·log(1/ε)) (Theorem 5.2)",
		"schedule", "n", "D", "eps", "rounds", "bound-frac")
	var bad []error
	for _, n := range []int{4, 8, 12, 16} {
		split := &dynamic.SplitRing{Vertices: n}
		for _, c := range []struct {
			name string
			s    dynamic.Schedule
			d    int
		}{
			{"ring", dynamic.NewStatic(graph.Ring(n)), n - 1},
			{"complete", dynamic.NewStatic(graph.Complete(n)), 1},
			{"split-ring", split, dynamic.DynamicDiameter(split, 1, 4*n)},
		} {
			for _, eps := range []float64{1e-2, 1e-4, 1e-8} {
				p, err := PushSumRate(c.s, c.d, LinearInputs(n), eps, seed)
				if err != nil {
					return tb, err
				}
				if p.Rounds >= 0 {
					tb.AddRow(c.name, n, c.d, fmt.Sprintf("%.0e", eps), p.Rounds, float64(p.Rounds)/p.Bound)
				}
				if !p.Within() {
					bad = append(bad, fmt.Errorf("%s n=%d eps=%g: %d rounds, bound %.0f", c.name, n, eps, p.Rounds, p.Bound))
				}
			}
		}
	}
	return tb, errors.Join(bad...)
}

// minBaseFigure is F2: directed rings, bidirectional rings and stars of
// 4–16 agents on the standard inputs.
func minBaseFigure(seed int64) (*report.Table, error) {
	tb := report.NewTable("F2: static frequency computation stabilization vs n + D (§4.2)",
		"network", "n", "D", "n+D", "measured", "within n+3D+4")
	var bad []error
	for _, n := range []int{4, 8, 12, 16} {
		for _, c := range []struct {
			name string
			g    *graph.Graph
		}{{"ring", graph.Ring(n)}, {"bidi-ring", graph.BidirectionalRing(n)}, {"star", graph.Star(n)}} {
			p, err := MinBaseRate(c.g, StandardInputs(n, false), seed)
			if err != nil {
				return tb, err
			}
			d := c.g.Diameter()
			tb.AddRow(fmt.Sprintf("%s-%d", c.name, n), n, d, n+d, p.Rounds, p.Within())
			if !p.Within() {
				bad = append(bad, fmt.Errorf("%s-%d: stabilized at %d, margin %.0f", c.name, n, p.Rounds, p.Bound))
			}
		}
	}
	return tb, errors.Join(bad...)
}

// metropolisFigure is F3: bidirectional rings of 4–24 agents, ε = 10⁻⁶.
func metropolisFigure(seed int64) (*report.Table, error) {
	tb := report.NewTable("F3: Metropolis convergence vs n² (per-round-connected symmetric networks)",
		"n", "rounds", "rounds/(n²·logε⁻¹)")
	var bad []error
	prev := 0
	for _, n := range []int{4, 8, 16, 24} {
		p, err := MetropolisRate(graph.BidirectionalRing(n), LinearInputs(n), 1e-6, seed)
		if err != nil {
			return tb, err
		}
		if p.Rounds >= 0 {
			tb.AddRow(n, p.Rounds, float64(p.Rounds)/p.Ref)
		}
		if p.Rounds < prev { // no convergence, or faster than a smaller ring
			bad = append(bad, fmt.Errorf("n=%d: %d rounds after %d for a smaller ring", n, p.Rounds, prev))
		}
		prev = max(prev, p.Rounds)
	}
	return tb, errors.Join(bad...)
}

// exactRoundingFigure is F4: the 6-ring on the standard inputs, bounds
// N ∈ {6, 12, 24, 48}.
func exactRoundingFigure(seed int64) (*report.Table, error) {
	tb := report.NewTable("F4: exact stabilization with a bound N vs O(n²·D·log N) (Cor. 5.3)",
		"n", "N", "measured", "n²·D·logN", "within")
	const n = 6
	var bad []error
	for _, bound := range []int{6, 12, 24, 48} {
		p, err := ExactRoundingRate(graph.Ring(n), StandardInputs(n, false), bound, seed)
		if err != nil {
			return tb, err
		}
		tb.AddRow(n, bound, p.Rounds, math.Round(p.Ref), p.Within())
		if !p.Within() {
			bad = append(bad, fmt.Errorf("N=%d: stabilized at %d, bound %.0f", bound, p.Rounds, p.Bound))
		}
	}
	return tb, errors.Join(bad...)
}

// dobrushinFigure is F5: the ergodic-coefficient decay of the Push-Sum
// product matrices B(t:1) on the 5-ring against the proof's envelope
// (1 − n^{-2D})^⌊t/D⌋ (§5.3) — the quantitative heart of Theorem 5.2 as
// data. It is pure linear algebra; the seed is unused.
func dobrushinFigure(int64) (*report.Table, error) {
	tb := report.NewTable("F5: δ(B(t:1)) decay vs the (1 − n^{-2D})^⌊t/D⌋ envelope (§5.3)",
		"t", "delta", "envelope")
	const n, d = 5, 4
	s := dynamic.NewStatic(graph.Ring(n))
	z := make([]float64, n)
	for i := range z {
		z[i] = 1
	}
	var prod *matrix.Dense
	var bad []error
	for t := 1; t <= 12*d; t++ {
		a := matrix.FromGraphPushSum(s.At(t))
		zNext := a.MulVec(z)
		b := matrix.NewDense(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, a.At(i, j)*z[j]/zNext[i])
			}
		}
		z = zNext
		if prod == nil {
			prod = b
		} else {
			prod = b.MulMat(prod)
		}
		if t%d == 0 {
			delta := prod.Dobrushin()
			envelope := math.Pow(1-math.Pow(n, -2*d), float64(t/d))
			tb.AddRow(t, fmt.Sprintf("%.6e", delta), fmt.Sprintf("%.6e", envelope))
			if delta > envelope+1e-9 {
				bad = append(bad, fmt.Errorf("t=%d: δ = %g above the envelope %g", t, delta, envelope))
			}
		}
	}
	return tb, errors.Join(bad...)
}

// growingGapsFigure is F6, the §6 open regime: connectivity recurs forever
// but no finite dynamic diameter exists. Metropolis is covered by Moreau's
// theorem; Push-Sum is the open case — on this benign adversary, a
// bidirectional ring of 4–8 agents linked only at triangular rounds, both
// still converge, with rounds growing with the gap structure.
func growingGapsFigure(seed int64) (*report.Table, error) {
	tb := report.NewTable("F6: growing-gap connectivity (§6 open regime)",
		"algorithm", "n", "rounds", "converged")
	met, err := metropolis.NewFactory(metropolis.Standard, 0)
	if err != nil {
		return tb, err
	}
	var bad []error
	for _, n := range []int{4, 6, 8} {
		s := &dynamic.GrowingGaps{Base: dynamic.NewStatic(graph.BidirectionalRing(n))}
		for _, alg := range []struct {
			name    string
			factory model.Factory
		}{{"push-sum", pushsum.NewAverageFactory()}, {"metropolis", met}} {
			rounds, err := averageRounds(s, alg.factory, LinearInputs(n), 1e-4, 200000, seed)
			if err != nil {
				return tb, err
			}
			converged := rounds >= 0
			if !converged {
				rounds = 200000
				bad = append(bad, fmt.Errorf("%s n=%d: no convergence", alg.name, n))
			}
			tb.AddRow(alg.name, n, rounds, converged)
		}
	}
	return tb, errors.Join(bad...)
}
