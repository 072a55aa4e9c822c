package engine_test

// Worker-count properties of the vectorized kernel: checkpoints
// interchange across worker counts in both directions, and NewRunner
// selects the kernel with the requested worker count.

import (
	"testing"

	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

func pushsumConfig(n int, seed int64) engine.Config {
	return engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(n),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     seed,
	}
}

// TestParallelVecCheckpointCrossResume pins the durability contract across
// worker counts: a checkpoint taken on the inline single-worker kernel
// ("vec") restores on a four-worker one ("parvec") and back, and the
// resumed trace is byte-identical to the uninterrupted one. Every worker
// count consumes the shared RNG draw-for-draw identically, so the Draws
// counter carries over.
func TestParallelVecCheckpointCrossResume(t *testing.T) {
	const n, rounds, k = 9, 12, 5
	mk := map[string]func() (engine.Runner, error){
		"vec": func() (engine.Runner, error) { return engine.NewParallelVec(pushsumConfig(n, 23), 1) },
		"parvec": func() (engine.Runner, error) {
			return engine.NewParallelVec(pushsumConfig(n, 23), 4)
		},
	}
	for _, dir := range []struct{ from, to string }{
		{"vec", "parvec"}, {"parvec", "vec"}, {"parvec", "parvec"},
	} {
		t.Run(dir.from+"-to-"+dir.to, func(t *testing.T) {
			a, err := mk[dir.from]()
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			lines, cp := runWithCheckpoint(t, a, rounds, k)
			b, err := mk[dir.to]()
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if got, full := resumedHash(t, b, cp, lines, rounds), hashLines(lines); got != full {
				t.Errorf("spliced %s→%s trace hash %s, want %s", dir.from, dir.to, got, full)
			}
		})
	}
}

// TestNewRunnerSelectsParallelVec pins the engine-selection contract:
// "vec" with a positive shard count runs that many workers, "vec" without
// one a single inline worker, the long aliases resolve through the
// shared name table, and the retired "conc" runs the one-slab generic
// engine.
func TestNewRunnerSelectsParallelVec(t *testing.T) {
	r, err := engine.NewRunner(pushsumConfig(6, 2), "vec", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pv, ok := r.(*engine.ParallelVec)
	if !ok {
		t.Fatalf("NewRunner(vec, 3) = %T, want *engine.ParallelVec", r)
	}
	if pv.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", pv.Workers())
	}
	r2, err := engine.NewRunner(pushsumConfig(6, 2), "vectorized", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	pv2, ok := r2.(*engine.ParallelVec)
	if !ok {
		t.Fatalf("NewRunner(vectorized, 0) = %T, want *engine.ParallelVec", r2)
	}
	if pv2.Workers() != 1 {
		t.Fatalf("NewRunner(vectorized, 0).Workers() = %d, want 1", pv2.Workers())
	}
	r3, err := engine.NewRunner(pushsumConfig(6, 2), "conc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := r3.(*engine.Engine); !ok || e.Workers() != 1 {
		t.Fatalf("NewRunner(conc, 3) = %T, want the one-slab *engine.Engine", r3)
	}
}
