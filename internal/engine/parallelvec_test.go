package engine_test

// Property tests for the parallel vectorized runner: across every
// vectorizable workload, seed, fault plan, async-start vector, and worker
// count — including counts that do not divide the agent count, counts
// above it (1-agent and empty slabs), and 1 (the inline path, no worker
// goroutines) — the traces must be byte-identical to the sequential
// engine, the steady-state round loop must not allocate, and checkpoints
// must interchange across worker counts in both directions.

import (
	"runtime"
	"testing"

	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// pvWorkerCounts is the property grid: degenerate, non-dividing, machine
// width, and workers > n (some slabs hold one agent, some none).
func pvWorkerCounts(n int) []int {
	return []int{1, 2, 3, runtime.GOMAXPROCS(0), n - 1, n + 1, 2 * n}
}

// TestParallelVecTraceEquality is the tentpole property: on every
// vectorizable workload, for several seeds and every worker count in the
// grid, the parallel kernel reproduces the sequential engine's trace byte
// for byte.
func TestParallelVecTraceEquality(t *testing.T) {
	const n = 7
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{11, 23} {
				for _, workers := range pvWorkerCounts(n) {
					seq, err := engine.New(tc.config(t, n, seed, nil, nil))
					if err != nil {
						t.Fatal(err)
					}
					pv, err := engine.NewParallelVec(tc.config(t, n, seed, nil, nil), workers)
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, workers, err)
					}
					stepPair(t, seq, pv, tc.rounds)
					pv.Close()
				}
			}
		})
	}
}

// TestParallelVecFaultTraceEquality repeats the property under a non-zero
// fault plan: drop, duplication, delay (the per-worker late scratch and
// the shared pending store), stall, and crash-restart.
func TestParallelVecFaultTraceEquality(t *testing.T) {
	const n = 7
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range pvWorkerCounts(n) {
				inj := faultPlanInjector(t)
				seq, err := engine.New(tc.config(t, n, 23, inj, nil))
				if err != nil {
					t.Fatal(err)
				}
				pv, err := engine.NewParallelVec(tc.config(t, n, 23, inj, nil), workers)
				if err != nil {
					t.Fatal(err)
				}
				stepPair(t, seq, pv, tc.rounds)
				pv.Close()
			}
		})
	}
}

// TestParallelVecAsyncStarts checks the activity mask under asynchronous
// starts on the parallel path.
func TestParallelVecAsyncStarts(t *testing.T) {
	const n = 7
	starts := []int{1, 3, 1, 5, 2, 1, 4}
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := engine.New(tc.config(t, n, 23, nil, starts))
			if err != nil {
				t.Fatal(err)
			}
			pv, err := engine.NewParallelVec(tc.config(t, n, 23, nil, starts), 3)
			if err != nil {
				t.Fatal(err)
			}
			defer pv.Close()
			stepPair(t, seq, pv, tc.rounds)
		})
	}
}

func pushsumConfig(n int, seed int64) engine.Config {
	return engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(n),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     seed,
	}
}

// TestParallelVecZeroAlloc is the perf contract: after warm-up, a
// fault-free parallel vectorized round on a static schedule performs zero
// heap allocations on the engine goroutine.
func TestParallelVecZeroAlloc(t *testing.T) {
	const n = 256
	pv, err := engine.NewParallelVec(pushsumConfig(n, 9), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Close()
	for r := 0; r < 3; r++ { // warm-up: CSR build, slab and swap growth
		if err := pv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := pv.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state parallel vectorized round allocates %v times, want 0", allocs)
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

// TestParallelVecLifecycle mirrors the other engines' lifecycle contract.
func TestParallelVecLifecycle(t *testing.T) {
	pv, err := engine.NewParallelVec(pushsumConfig(4, 1), 0) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if pv.Workers() < 1 {
		t.Fatalf("Workers() = %d, want ≥ 1", pv.Workers())
	}
	if pv.Width() != 2 {
		t.Fatalf("Width() = %d, want 2", pv.Width())
	}
	pv.Close()
	pv.Close() // idempotent
	if err := pv.Step(); err == nil {
		t.Fatal("Step after Close should fail")
	}
	if pv.Corrupt(1) != 0 {
		t.Fatal("Corrupt after Close should be a no-op")
	}
}

// TestParallelVecNotVectorizable: the parallel runner refuses exactly the
// workloads the single-threaded one refuses, with the same sentinel.
func TestParallelVecNotVectorizable(t *testing.T) {
	cfg := pushsumConfig(4, 1)
	cfg.Kind = model.OutputPortAware
	if _, err := engine.NewParallelVec(cfg, 2); err == nil {
		t.Fatal("want ErrNotVectorizable for the port model")
	}
}

// TestNewRunnerSelectsParallelVec pins the engine-selection contract:
// "vec" with a positive shard count runs that many workers, "vec" without
// one a single inline worker, and the long aliases resolve through the
// shared name table.
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
}
