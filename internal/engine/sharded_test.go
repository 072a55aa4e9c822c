package engine_test

// Slab-count properties of the generic engine: its trace does not depend
// on how many slabs the agents are cut into.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"anonnet/internal/algorithms/gossip"
	"anonnet/internal/algorithms/minbase"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// TestShardCountInvariance asserts the generic engine's trace does not
// depend on the slab count — 1, 2, GOMAXPROCS, and n+1 (clamped to n)
// all reproduce the one-slab trace.
func TestShardCountInvariance(t *testing.T) {
	const n = 9
	shardCounts := []int{1, 2, runtime.GOMAXPROCS(0), n + 1}
	for _, tc := range algoCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{
				Schedule: tc.schedule(n, 5),
				Kind:     tc.kind,
				Inputs:   caseInputs(n),
				Factory:  tc.factory(t, n),
				Seed:     41,
			}
			seq, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := engine.RunRounds(seq, tc.rounds)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range shardCounts {
				c := cfg
				c.Factory = tc.factory(t, n)
				shd, err := engine.NewSharded(c, shards)
				if err != nil {
					t.Fatal(err)
				}
				got, err := engine.RunRounds(shd, tc.rounds)
				shd.Close()
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s: trace with %d shards diverges from sequential", tc.name, shards)
				}
			}
		})
	}
}

// TestShardedPortModel covers the output-port-aware delivery slots through
// the CSR layout.
func TestShardedPortModel(t *testing.T) {
	const n = 8
	f, err := minbase.NewFactory(model.OutputPortAware)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(n).AssignPorts()),
		Kind:     model.OutputPortAware,
		Inputs:   caseInputs(n),
		Factory:  f,
		Seed:     3,
	}
	seq, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.RunRounds(seq, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	shd, err := engine.NewSharded(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer shd.Close()
	got, err := engine.RunRounds(shd, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("port-model traces diverge between sequential and sharded")
	}
}

func ExampleNewSharded() {
	f, _ := gossip.NewFactory(funcs.Max())
	shd, _ := engine.NewSharded(engine.Config{
		Schedule: dynamic.NewStatic(graph.Ring(4)),
		Kind:     model.SimpleBroadcast,
		Inputs:   caseInputs(4),
		Factory:  f,
	}, 2)
	defer shd.Close()
	res, _ := engine.RunUntilStable(shd, model.Discrete, 5, 100)
	fmt.Println(res.Stable, res.Outputs[0])
	// Output: true 4
}
