package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/fibration"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// This file makes the paper's impossibility machinery executable. The
// lifting lemma (Lemma 3.1) and the ring construction of §4.1 are proofs;
// they cannot be "run" — but their finite consequences can be machine
// checked on concrete networks, which is how the harness regenerates the
// negative cells of Tables 1 and 2 (DESIGN.md §6, deviation 4).

// CheckLifting verifies Lemma 3.1 on a concrete fibration φ : G → B:
// running the algorithm on B with the given inputs, and on G with the
// fibrewise-lifted inputs, must produce identical outputs fibrewise in
// every round. A nil error means the executions matched for the whole run.
//
// The lemma applies to the fibrations of the model's class (its
// Descriptor's Lifting): any fibration for a blind cast, outdegree-
// preserving ones (G_od → B_od) under outdegree awareness, coverings with
// ports preserved under output port awareness, and fibrations between
// symmetric graphs under symmetric communications — CheckLifting verifies
// these side conditions first.
func CheckLifting(fib *fibration.Fibration, kind model.Kind, factory model.Factory,
	baseInputs []model.Input, rounds int, seed int64) error {
	desc, err := model.Lookup(kind)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := fib.Check(nil, nil); err != nil {
		return fmt.Errorf("core: not a fibration: %w", err)
	}
	if len(baseInputs) != fib.Base.N() {
		return fmt.Errorf("core: %d base inputs for %d base vertices", len(baseInputs), fib.Base.N())
	}
	switch desc.Lifting {
	case model.LiftAny:
		// A blind cast (simple or one-bit broadcast) lifts along every
		// fibration: no side condition.
	case model.LiftOutdegree:
		for v := 0; v < fib.Total.N(); v++ {
			if fib.Total.OutDegree(v) != fib.Base.OutDegree(fib.VertexMap[v]) {
				return fmt.Errorf("core: fibration does not preserve outdegrees at vertex %d (%d vs %d): Lemma 3.1 needs G_od → B_od",
					v, fib.Total.OutDegree(v), fib.Base.OutDegree(fib.VertexMap[v]))
			}
		}
	case model.LiftCovering:
		if !fib.IsCovering() {
			return fmt.Errorf("core: fibration is not a covering: with output ports every fibration must be (§4.3)")
		}
	case model.LiftSymmetric:
		if !fib.Total.IsSymmetric() || !fib.Base.IsSymmetric() {
			return fmt.Errorf("core: symmetric model needs bidirectional total and base graphs")
		}
	}
	liftedInputs := fibration.LiftValuation(fib, baseInputs)
	baseRun, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(fib.Base),
		Kind:     kind,
		Inputs:   baseInputs,
		Factory:  factory,
		Seed:     seed,
	})
	if err != nil {
		return fmt.Errorf("core: base run: %w", err)
	}
	totalRun, err := engine.New(engine.Config{
		Schedule: dynamic.NewStatic(fib.Total),
		Kind:     kind,
		Inputs:   liftedInputs,
		Factory:  factory,
		Seed:     seed + 1,
	})
	if err != nil {
		return fmt.Errorf("core: total run: %w", err)
	}
	for t := 1; t <= rounds; t++ {
		if err := baseRun.Step(); err != nil {
			return fmt.Errorf("core: base run round %d: %w", t, err)
		}
		if err := totalRun.Step(); err != nil {
			return fmt.Errorf("core: total run round %d: %w", t, err)
		}
		baseOut := baseRun.Outputs()
		totalOut := totalRun.Outputs()
		for v, bv := range fib.VertexMap {
			if !reflect.DeepEqual(totalOut[v], baseOut[bv]) {
				return fmt.Errorf("core: lifting lemma violated at round %d: vertex %d outputs %v, its image %d outputs %v",
					t, v, totalOut[v], bv, baseOut[bv])
			}
		}
	}
	return nil
}

// WitnessReport is the outcome of an impossibility witness run.
type WitnessReport struct {
	// Agree is true when the two executions ended with identical output
	// sets — the indistinguishability the impossibility proof predicts.
	Agree bool
	// OutputsA and OutputsB are the final outputs of the two runs.
	OutputsA, OutputsB []model.Value
	// Detail describes the construction.
	Detail string
}

// RingImpossibilityWitness realizes the §4.1 construction: inputs with
// frequency function ν are laid on the base ring R_p (p = Σ multiplicities)
// and lifted along the fibrations R_{k1·p} → R_p and R_{k2·p} → R_p; the
// given algorithm runs on both rings for the given number of rounds. If the
// outputs agree (as Lemma 3.1 forces for deterministic anonymous
// algorithms), no run of this algorithm distinguishes the two
// frequency-equivalent inputs — so a function whose values differ on them
// (such as the sum) is not computed.
func RingImpossibilityWitness(factory model.Factory, kind model.Kind,
	nu map[float64]int, k1, k2, rounds int, seed int64) (*WitnessReport, error) {
	desc, err := model.Lookup(kind)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if desc.Lifting == model.LiftSymmetric {
		return nil, fmt.Errorf("core: the ring construction uses directed rings, but %s needs bidirectional links", desc.Name)
	}
	if k1 < 1 || k2 < 1 {
		return nil, fmt.Errorf("core: fold factors must be ≥ 1, got %d and %d", k1, k2)
	}
	baseInputs := layOnRing(nu)
	p := len(baseInputs)
	runOnRing := func(k int, seed int64) ([]model.Value, error) {
		fib, err := fibration.RingFibration(k*p, p)
		if err != nil {
			return nil, err
		}
		g := fib.Total
		if desc.Lifting == model.LiftCovering {
			g = g.AssignPorts()
		}
		return outputsAfter(engine.Config{Schedule: dynamic.NewStatic(g), Kind: kind,
			Inputs: fibration.LiftValuation(fib, baseInputs), Factory: factory, Seed: seed}, rounds)
	}
	outA, err := runOnRing(k1, seed)
	if err != nil {
		return nil, fmt.Errorf("core: run on R_%d: %w", k1*p, err)
	}
	outB, err := runOnRing(k2, seed+100)
	if err != nil {
		return nil, fmt.Errorf("core: run on R_%d: %w", k2*p, err)
	}
	return &WitnessReport{
		Agree:    sameOutputSet(outA, outB),
		OutputsA: outA,
		OutputsB: outB,
		Detail:   fmt.Sprintf("rings R_%d and R_%d fibred over R_%d, %v model", k1*p, k2*p, p, kind),
	}, nil
}

// BroadcastSetCeilingWitness realizes the broadcast limit (the set-based
// rows of Tables 1 and 2, after [20, 21]): two total graphs with the *same
// value set but different frequencies* are lifted from the same base with
// different fibre cardinalities — legitimate for simple broadcast, where
// the lifting lemma needs no valuation preservation. The given broadcast
// algorithm runs on both; agreement witnesses that not even frequencies are
// recoverable by blind broadcast.
func BroadcastSetCeilingWitness(factory model.Factory, nu map[float64]int,
	zA, zB []int, rounds int, seed int64) (*WitnessReport, error) {
	baseInputs := layOnRing(nu)
	p := len(baseInputs)
	// A ring with a doubled self-loop at each vertex: the extra parallel
	// self-loop lets fibres of any cardinality stay internally connected
	// in the lifts (a single self-loop must lift to honest self-loops).
	base := graph.Ring(p)
	for v := 0; v < p; v++ {
		base.AddEdge(v, v)
	}
	if len(zA) != p || len(zB) != p {
		return nil, fmt.Errorf("core: cardinality vectors must have length %d", p)
	}
	rng := rand.New(rand.NewSource(seed))
	run := func(z []int, seed int64) ([]model.Value, error) {
		fib, err := fibration.LiftAny(base, z, rng)
		if err != nil {
			return nil, err
		}
		return outputsAfter(engine.Config{Schedule: dynamic.NewStatic(fib.Total), Kind: model.SimpleBroadcast,
			Inputs: fibration.LiftValuation(fib, baseInputs), Factory: factory, Seed: seed}, rounds)
	}
	outA, err := run(zA, seed+1)
	if err != nil {
		return nil, fmt.Errorf("core: run A: %w", err)
	}
	outB, err := run(zB, seed+2)
	if err != nil {
		return nil, fmt.Errorf("core: run B: %w", err)
	}
	return &WitnessReport{
		Agree:    sameOutputSet(outA, outB),
		OutputsA: outA,
		OutputsB: outB,
		Detail:   fmt.Sprintf("lifts of R_%d with fibre cardinalities %v vs %v, simple broadcast", p, zA, zB),
	}, nil
}

// outputsAfter runs cfg for the given number of rounds and returns the
// final outputs.
func outputsAfter(cfg engine.Config, rounds int) ([]model.Value, error) {
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	for t := 0; t < rounds; t++ {
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	return e.Outputs(), nil
}

// layOnRing lays the multiset ν around a ring, grouping equal values in
// arcs (any arrangement works; the construction of §4.1 uses ⟨ν⟩).
func layOnRing(nu map[float64]int) []model.Input {
	keys := make([]float64, 0, len(nu))
	for v := range nu {
		keys = append(keys, v)
	}
	sort.Float64s(keys)
	var out []model.Input
	for _, v := range keys {
		for c := 0; c < nu[v]; c++ {
			out = append(out, model.Input{Value: v})
		}
	}
	return out
}

// sameOutputSet compares the *sets* of final outputs of two runs — the
// right notion, since the runs have different sizes and anonymity makes
// outputs exchangeable.
func sameOutputSet(a, b []model.Value) bool {
	return subsetOf(a, b) && subsetOf(b, a)
}

func subsetOf(a, b []model.Value) bool {
	for _, x := range a {
		found := false
		for _, y := range b {
			if reflect.DeepEqual(x, y) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
