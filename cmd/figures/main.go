// Command figures regenerates the quantitative claims of the paper as
// parameter sweeps (the "figures" of this theory paper, DESIGN.md §4):
//
//	F1 pushsum-rate:    Push-Sum ε-convergence vs the O(n²·D·log(1/ε)) bound (Thm 5.2)
//	F2 minbase-rounds:  static frequency computation stabilization vs n + D (§4.2)
//	F3 metropolis-rate: Metropolis convergence vs n² (§5, [10])
//	F4 exact-rounding:  exact stabilization with a bound N vs O(n²·D·log N) (Cor 5.3)
//	F5 dobrushin:       δ(B(t:1)) decay vs the proof's (1 − n^{-2D})^⌊t/D⌋ envelope (§5.3)
//	F6 growing-gaps:    the §6 open regime — no finite dynamic diameter
//
// Usage:
//
//	figures [-fig all|pushsum-rate|minbase-rounds|metropolis-rate|exact-rounding|dobrushin|growing-gaps] [-seed S] [-csv DIR]
//
// With -csv DIR, each figure's data is additionally written as
// DIR/<fig>.csv for external plotting.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

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

func main() {
	var (
		fig    = flag.String("fig", "all", "which figure to regenerate")
		seed   = flag.Int64("seed", 1, "base RNG seed")
		csvDir = flag.String("csv", "", "directory to write per-figure CSV data into (optional)")
	)
	flag.Parse()
	ok := true
	run := func(name string, f func(int64) (*report.Table, bool)) {
		if *fig != "all" && *fig != name {
			return
		}
		tb, good := f(*seed)
		ok = good && ok
		if tb != nil {
			if err := tb.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, name, tb); err != nil {
					fmt.Fprintln(os.Stderr, "figures:", err)
					os.Exit(1)
				}
			}
		}
	}
	run("pushsum-rate", figPushSumRate)
	run("minbase-rounds", figMinbaseRounds)
	run("metropolis-rate", figMetropolisRate)
	run("exact-rounding", figExactRounding)
	run("dobrushin", figDobrushin)
	run("growing-gaps", figGrowingGaps)
	if !ok {
		fmt.Println("RESULT: some sweeps exceeded their paper bounds")
		os.Exit(1)
	}
	fmt.Println("RESULT: all sweeps within the paper's bounds")
}

// writeCSV writes one figure's table to dir/name.csv.
func writeCSV(dir, name string, tb *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.WriteCSV(f)
}

func inputsMod3(n int) []model.Input {
	out := make([]model.Input, n)
	pattern := []float64{1, 2, 2}
	for i := range out {
		out[i] = model.Input{Value: pattern[i%3]}
	}
	return out
}

// inputsLinear gives agent i the value i: an aperiodic valuation, so the
// network has no small quotient. (With periodic inputs a ring R_n with
// period p | n behaves exactly like its quotient R_p — the lifting lemma in
// action — and rate sweeps would measure the quotient's size, not n.)
func inputsLinear(n int) []model.Input {
	out := make([]model.Input, n)
	for i := range out {
		out[i] = model.Input{Value: float64(i)}
	}
	return out
}

func avgOf(in []model.Input) float64 {
	s := 0.0
	for _, x := range in {
		s += x.Value
	}
	return s / float64(len(in))
}

// figPushSumRate sweeps n, the schedule (hence D), and ε, reporting rounds
// to ε-agreement against the Theorem 5.2 budget n²·D·log(1/ε).
func figPushSumRate(seed int64) (*report.Table, bool) {
	tb := report.NewTable("F1: Push-Sum ε-convergence vs O(n²·D·log(1/ε)) (Theorem 5.2)",
		"schedule", "n", "D", "eps", "rounds", "bound-frac")
	ok := true
	for _, n := range []int{4, 8, 12, 16} {
		cases := []struct {
			name string
			s    dynamic.Schedule
			d    int
		}{
			{"ring", dynamic.NewStatic(graph.Ring(n)), n - 1},
			{"complete", dynamic.NewStatic(graph.Complete(n)), 1},
			{"split-ring", &dynamic.SplitRing{Vertices: n}, dynamic.DynamicDiameter(&dynamic.SplitRing{Vertices: n}, 1, 4*n)},
		}
		for _, c := range cases {
			for _, eps := range []float64{1e-2, 1e-4, 1e-8} {
				e, err := engine.New(engine.Config{
					Schedule: c.s, Kind: model.OutdegreeAware,
					Inputs: inputsLinear(n), Factory: pushsum.NewAverageFactory(), Seed: seed,
				})
				if err != nil {
					fmt.Println("  ! engine:", err)
					return tb, false
				}
				bound := float64(n*n*c.d) * math.Log(1/eps)
				res, err := engine.RunUntilClose(e, avgOf(inputsLinear(n)), model.Euclid, eps, int(bound)+1000)
				if err != nil || !res.Converged {
					fmt.Printf("  ! %s n=%d eps=%g: no convergence within the bound\n", c.name, n, eps)
					ok = false
					continue
				}
				frac := float64(res.Rounds) / bound
				tb.AddRow(c.name, n, c.d, fmt.Sprintf("%.0e", eps), res.Rounds, frac)
				if frac > 1 {
					ok = false
				}
			}
		}
	}
	return tb, ok
}

// figMinbaseRounds measures the round from which every agent's output is
// final (the §4.2 stabilization), against n + D and our implementation's
// n + 3D + 4 margin.
func figMinbaseRounds(seed int64) (*report.Table, bool) {
	tb := report.NewTable("F2: static frequency computation stabilization vs n + D (§4.2)",
		"network", "n", "D", "n+D", "measured", "within n+3D+4")
	ok := true
	type tc struct {
		name string
		g    *graph.Graph
	}
	var cases []tc
	for _, n := range []int{4, 8, 12, 16} {
		cases = append(cases,
			tc{fmt.Sprintf("ring-%d", n), graph.Ring(n)},
			tc{fmt.Sprintf("bidi-ring-%d", n), graph.BidirectionalRing(n)},
			tc{fmt.Sprintf("star-%d", n), graph.Star(n)},
		)
	}
	for _, c := range cases {
		n, d := c.g.N(), c.g.Diameter()
		inputs := inputsMod3(n)
		factory, err := freqcalc.NewFactory(model.OutdegreeAware, funcs.Average(), model.Help{})
		if err != nil {
			fmt.Println("  !", err)
			return tb, false
		}
		e, err := engine.New(engine.Config{
			Schedule: dynamic.NewStatic(c.g), Kind: model.OutdegreeAware,
			Inputs: inputs, Factory: factory, Seed: seed,
		})
		if err != nil {
			fmt.Println("  !", err)
			return tb, false
		}
		budget := 2*(n+3*d+4) + 10
		history, err := engine.RunRounds(e, budget)
		if err != nil {
			fmt.Println("  !", err)
			return tb, false
		}
		measured := stabilizationRound(history)
		margin := n + 3*d + 4
		within := measured >= 0 && measured <= margin
		tb.AddRow(c.name, n, d, n+d, measured, within)
		if !within {
			ok = false
		}
	}
	return tb, ok
}

// stabilizationRound returns the first round (1-based) from which the
// output vector never changes, or -1 if it changed in the last round.
func stabilizationRound(history [][]model.Value) int {
	last := history[len(history)-1]
	for t := len(history) - 1; t >= 1; t-- {
		changed := false
		for i := range last {
			if history[t-1][i] != last[i] {
				changed = true
				break
			}
		}
		if changed {
			if t == len(history)-1 {
				return -1
			}
			return t + 1
		}
	}
	return 1
}

// figMetropolisRate sweeps n on bidirectional rings and checks the
// quadratic trend of Metropolis convergence ([10]).
func figMetropolisRate(seed int64) (*report.Table, bool) {
	tb := report.NewTable("F3: Metropolis convergence vs n² (per-round-connected symmetric networks)",
		"n", "rounds", "rounds/(n²·logε⁻¹)")
	eps := 1e-6
	ok := true
	prev := 0
	for _, n := range []int{4, 8, 16, 24} {
		factory, err := metropolis.NewFactory(metropolis.Standard, 0)
		if err != nil {
			fmt.Println("  !", err)
			return tb, false
		}
		e, err := engine.New(engine.Config{
			Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
			Kind:     model.OutdegreeAware,
			Inputs:   inputsLinear(n), Factory: factory, Seed: seed,
		})
		if err != nil {
			fmt.Println("  !", err)
			return tb, false
		}
		res, err := engine.RunUntilClose(e, avgOf(inputsLinear(n)), model.Euclid, eps, 200000)
		if err != nil || !res.Converged {
			fmt.Printf("  ! n=%d: no convergence\n", n)
			ok = false
			continue
		}
		norm := float64(res.Rounds) / (float64(n*n) * math.Log(1/eps))
		tb.AddRow(n, res.Rounds, norm)
		if res.Rounds < prev {
			ok = false // must grow with n
		}
		prev = res.Rounds
	}
	return tb, ok
}

// figExactRounding sweeps the known bound N and reports the exact
// stabilization round of the ℚ_N-rounded Push-Sum, against O(n²·D·log N)
// (Cor 5.3).
func figExactRounding(seed int64) (*report.Table, bool) {
	tb := report.NewTable("F4: exact stabilization with a bound N vs O(n²·D·log N) (Cor. 5.3)",
		"n", "N", "measured", "n²·D·logN", "within")
	n := 6
	d := n - 1
	inputs := inputsMod3(n)
	ok := true
	for _, bound := range []int{6, 12, 24, 48} {
		factory, err := pushsum.NewFrequencyFactory(funcs.Average(), model.Help{BoundN: bound})
		if err != nil {
			fmt.Println("  !", err)
			return tb, false
		}
		e, err := engine.New(engine.Config{
			Schedule: dynamic.NewStatic(graph.Ring(n)), Kind: model.OutdegreeAware,
			Inputs: inputs, Factory: factory, Seed: seed,
		})
		if err != nil {
			fmt.Println("  !", err)
			return tb, false
		}
		budget := int(4*float64(n*n*d)*math.Log(float64(bound))) + 500
		history, err := engine.RunRounds(e, budget)
		if err != nil {
			fmt.Println("  !", err)
			return tb, false
		}
		measured := stabilizationRound(history)
		ref := float64(n*n*d) * math.Log(float64(bound))
		within := measured >= 0 && float64(measured) <= 2*ref+200
		tb.AddRow(n, bound, measured, math.Round(ref), within)
		if !within {
			ok = false
		}
	}
	return tb, ok
}

// figDobrushin traces the ergodic-coefficient decay of the Push-Sum
// product matrices B(t:1) against the proof's envelope (1 − n^{-2D})^⌊t/D⌋
// (§5.3) — the quantitative heart of Theorem 5.2, rendered as data.
func figDobrushin(seed int64) (*report.Table, bool) {
	tb := report.NewTable("F5: δ(B(t:1)) decay vs the (1 − n^{-2D})^⌊t/D⌋ envelope (§5.3)",
		"t", "delta", "envelope")
	n := 5
	s := dynamic.NewStatic(graph.Ring(n))
	d := n - 1
	z := make([]float64, n)
	for i := range z {
		z[i] = 1
	}
	var prod *matrix.Dense
	ok := true
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
			envelope := math.Pow(1-math.Pow(float64(n), -2*float64(d)), float64(t/d))
			tb.AddRow(t, fmt.Sprintf("%.6e", delta), fmt.Sprintf("%.6e", envelope))
			if delta > envelope+1e-9 {
				ok = false
			}
		}
	}
	_ = seed
	return tb, ok
}

// figGrowingGaps explores the §6 open regime: connectivity recurs forever
// but no finite dynamic diameter exists. Metropolis is covered by Moreau's
// theorem; Push-Sum is the open case — on this benign adversary both still
// converge, with rounds growing with the gap structure.
func figGrowingGaps(seed int64) (*report.Table, bool) {
	tb := report.NewTable("F6: growing-gap connectivity (§6 open regime)",
		"algorithm", "n", "rounds", "converged")
	ok := true
	for _, n := range []int{4, 6, 8} {
		s := &dynamic.GrowingGaps{Base: dynamic.NewStatic(graph.BidirectionalRing(n))}
		for _, alg := range []struct {
			name    string
			factory model.Factory
		}{
			{"push-sum", pushsum.NewAverageFactory()},
			{"metropolis", mustMetropolis()},
		} {
			e, err := engine.New(engine.Config{
				Schedule: s, Kind: model.OutdegreeAware,
				Inputs: inputsLinear(n), Factory: alg.factory, Seed: seed,
			})
			if err != nil {
				fmt.Println("  !", err)
				return tb, false
			}
			res, err := engine.RunUntilClose(e, avgOf(inputsLinear(n)), model.Euclid, 1e-4, 200000)
			if err != nil {
				fmt.Println("  !", err)
				return tb, false
			}
			tb.AddRow(alg.name, n, res.Rounds, res.Converged)
			if !res.Converged {
				ok = false
			}
		}
	}
	return tb, ok
}

func mustMetropolis() model.Factory {
	f, err := metropolis.NewFactory(metropolis.Standard, 0)
	if err != nil {
		panic(err)
	}
	return f
}
