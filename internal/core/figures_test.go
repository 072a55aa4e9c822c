package core

import (
	"fmt"
	"math/rand"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/fibration"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// rateCase is one network of the generated rate properties.
type rateCase struct {
	name   string
	g      *graph.Graph
	inputs []model.Input
}

// rateFamily generates random strongly connected bases with distinct
// inputs vᵢ = i, which have no quotient, and LiftFibred lifts of each
// carrying the lifted valuation, whose minimum base is that base. Random
// graphs are almost surely prime (Rybicki, Verbitsky & Zhukovskii), so the
// lifts are built on purpose.
func rateFamily(t *testing.T, bases int, rng *rand.Rand) []rateCase {
	t.Helper()
	var cases []rateCase
	for i := 0; i < bases; i++ {
		m := 2 + rng.Intn(4) // 2–5 base vertices
		base := graph.RandomStronglyConnected(m, m/2, rng)
		in := LinearInputs(m)
		cases = append(cases, rateCase{fmt.Sprintf("base%d/m=%d", i, m), base, in})
		// Fibre sizes 1–3, not all 1, redrawn until they satisfy eq. (1);
		// all-2 always does.
		var fib *fibration.Fibration
		var err error
		for try := 0; try < 16; try++ {
			z := make([]int, m)
			trivial := true
			for j := range z {
				z[j] = 1 + rng.Intn(3)
				if try == 15 {
					z[j] = 2
				}
				trivial = trivial && z[j] == 1
			}
			if trivial {
				continue
			}
			if fib, err = fibration.LiftFibred(base, z, rng); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("base %d: %v", i, err)
		}
		cases = append(cases, rateCase{fmt.Sprintf("lift%d/n=%d", i, fib.Total.N()), fib.Total, fibration.LiftValuation(fib, in)})
	}
	return cases
}

// TestGeneratedRateBounds checks F1, F2 and F4's bounds on generated
// networks: F1 rounds ≤ n²·D·ln(1/ε), F2 ≤ n + 3D + 4, F4 ≤ 2·n²·D·ln N +
// 200, with N = n + 2. The measured/reference ratios are logged as
// statistics, not gated.
func TestGeneratedRateBounds(t *testing.T) {
	for _, c := range rateFamily(t, 10, rand.New(rand.NewSource(16))) {
		t.Run(c.name, func(t *testing.T) {
			n, d := c.g.N(), c.g.Diameter()
			if d < 1 {
				t.Fatalf("generated network is not strongly connected (diameter %d)", d)
			}
			check := func(fig string, p Rate, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", fig, err)
				}
				t.Logf("%s: n=%d D=%d rounds=%d ref=%.1f ratio=%.3f", fig, n, d, p.Rounds, p.Ref, float64(p.Rounds)/p.Ref)
				if !p.Within() {
					t.Errorf("%s: %d rounds, beyond the bound %.1f", fig, p.Rounds, p.Bound)
				}
			}
			p, err := PushSumRate(dynamic.NewStatic(c.g), d, c.inputs, 1e-4, 1)
			check("F1", p, err)
			p, err = MinBaseRate(c.g, c.inputs, 1)
			check("F2", p, err)
			p, err = ExactRoundingRate(c.g, c.inputs, n+2, 1)
			check("F4", p, err)
		})
	}
}

// stepAgent outputs how many of its change rounds have passed.
type stepAgent struct {
	round   int
	changes []int
	out     float64
}

func (a *stepAgent) Send() model.Message { return nil }

func (a *stepAgent) Receive([]model.Message) {
	a.round++
	for _, c := range a.changes {
		if a.round == c {
			a.out++
		}
	}
}

func (a *stepAgent) Output() model.Value { return a.out }

func TestStabilizedRoundScansTheFullBudget(t *testing.T) {
	run := func(budget int, changes ...int) int {
		t.Helper()
		r, err := stabilizedRound(engine.Config{
			Schedule: dynamic.NewStatic(graph.BidirectionalRing(3)),
			Kind:     model.SimpleBroadcast,
			Inputs:   make([]model.Input, 3),
			Factory:  func(model.Input) model.Agent { return &stepAgent{changes: changes} },
		}, budget)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// A quiet stretch after round 3 does not end the scan: the change at
	// round 9 does.
	if got := run(20, 3, 9); got != 9 {
		t.Errorf("changes at 3 and 9: stabilized at %d, want 9", got)
	}
	if got := run(20); got != 1 {
		t.Errorf("no change: stabilized at %d, want 1", got)
	}
	if got := run(20, 20); got != -1 {
		t.Errorf("change in the last round: %d, want -1", got)
	}
}
