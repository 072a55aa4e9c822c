// Package testutil provides shared helpers for the algorithm test suites:
// running factories on static graphs and schedules, building inputs, and
// comparing outputs.
package testutil

import (
	"fmt"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// Inputs builds a plain input slice from values.
func Inputs(vals ...float64) []model.Input {
	out := make([]model.Input, len(vals))
	for i, v := range vals {
		out[i] = model.Input{Value: v}
	}
	return out
}

// WithLeaders marks the given indices as leaders.
func WithLeaders(in []model.Input, leaders ...int) []model.Input {
	out := make([]model.Input, len(in))
	copy(out, in)
	for _, i := range leaders {
		out[i].Leader = true
	}
	return out
}

// RunStatic runs the factory on a static graph for the given number of
// rounds and returns the engine (so callers can inspect agents and
// outputs). The graph is port-labelled automatically for models lifting
// along coverings (the port model).
func RunStatic(t *testing.T, g *graph.Graph, kind model.Kind, inputs []model.Input,
	factory model.Factory, rounds int, seed int64) *engine.Engine {
	t.Helper()
	desc, err := model.Lookup(kind)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Lifting == model.LiftCovering && !g.PortsValid() {
		g = g.AssignPorts()
	}
	return RunSchedule(t, dynamic.NewStatic(g), kind, inputs, factory, rounds, seed)
}

// RunSchedule runs the factory on a dynamic schedule for the given number
// of rounds.
func RunSchedule(t *testing.T, s dynamic.Schedule, kind model.Kind, inputs []model.Input,
	factory model.Factory, rounds int, seed int64) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{
		Schedule: s,
		Kind:     kind,
		Inputs:   inputs,
		Factory:  factory,
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	for r := 0; r < rounds; r++ {
		if err := e.Step(); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}
	return e
}

// AllOutputsNear asserts every output is a float64 within eps of want.
func AllOutputsNear(t *testing.T, outs []model.Value, want, eps float64, context string) {
	t.Helper()
	for i, o := range outs {
		f, ok := o.(float64)
		if !ok {
			t.Fatalf("%s: output %d is %T (%v), want float64", context, i, o, o)
		}
		if diff := f - want; diff > eps || diff < -eps {
			t.Fatalf("%s: output %d = %v, want %v ± %v (all: %v)", context, i, f, want, eps, outs)
		}
	}
}

// AllOutputsEqual asserts every output equals want exactly.
func AllOutputsEqual(t *testing.T, outs []model.Value, want model.Value, context string) {
	t.Helper()
	for i, o := range outs {
		if o != want {
			t.Fatalf("%s: output %d = %v, want %v (all: %v)", context, i, o, want, fmt.Sprint(outs))
		}
	}
}

// CapableKinds lists the registered models whose executions do not lift
// along every fibration — the three models of Theorem 4.1 — in Kind order.
func CapableKinds() []model.Kind {
	var kinds []model.Kind
	for _, d := range model.Descriptors() {
		if d.Lifting != model.LiftAny {
			kinds = append(kinds, d.Kind)
		}
	}
	return kinds
}
