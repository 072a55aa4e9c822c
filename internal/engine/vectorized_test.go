package engine_test

// Properties of the vectorized kernel beyond trace equality (which the
// runner table checks): at every worker count it refuses — never silently
// mis-runs — workloads outside the model.VectorAgent contract, and its
// steady-state round loop does not allocate.

import (
	"errors"
	"testing"

	"anonnet/internal/algorithms/freqcalc"
	"anonnet/internal/algorithms/gossip"
	"anonnet/internal/algorithms/metropolis"
	"anonnet/internal/algorithms/minbase"
	"anonnet/internal/algorithms/pushsum"
	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/funcs"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// TestVectorizedNotVectorizable: gossip, minbase, and freqcalc agents do
// not implement the vector contract, the degree-aware Metropolis variants
// decline it, and the port model has no vector form; the kernel must
// report ErrNotVectorizable for all of them at every worker count — the
// deterministic signal the job runner's fallback keys on — and
// CanVectorize must never mis-select.
func TestVectorizedNotVectorizable(t *testing.T) {
	const n = 6
	mustFactory := func(f model.Factory, err error) model.Factory {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ring := func() dynamic.Schedule { return dynamic.NewStatic(graph.BidirectionalRing(n)) }
	ports := func() dynamic.Schedule { return dynamic.NewStatic(graph.Ring(n).AssignPorts()) }
	cases := []struct {
		name     string
		kind     model.Kind
		factory  model.Factory
		schedule dynamic.Schedule
	}{
		{"gossip", model.SimpleBroadcast, mustFactory(gossip.NewFactory(funcs.Max())), ring()},
		{"minbase", model.OutdegreeAware, mustFactory(minbase.NewFactory(model.OutdegreeAware)), ring()},
		{"freqcalc", model.OutdegreeAware, mustFactory(freqcalc.NewFactory(model.OutdegreeAware, funcs.Average(), model.Help{})), ring()},
		{"metropolis-standard", model.OutdegreeAware, mustFactory(metropolis.NewFactory(metropolis.Standard, 0)), ring()},
		{"metropolis-lazy", model.OutdegreeAware, mustFactory(metropolis.NewFactory(metropolis.Lazy, 0)), ring()},
		{"minbase-ports", model.OutputPortAware, mustFactory(minbase.NewFactory(model.OutputPortAware)), ports()},
		{"pushsum-ports", model.OutputPortAware, pushsum.NewAverageFactory(), ports()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{
				Schedule: tc.schedule,
				Kind:     tc.kind,
				Inputs:   caseInputs(n),
				Factory:  tc.factory,
				Seed:     1,
			}
			if engine.CanVectorize(cfg) {
				t.Fatal("CanVectorize mis-selected a non-vectorizable workload")
			}
			for _, row := range runnerTable(n) {
				if !row.vec {
					continue
				}
				if _, err := row.mk(cfg); !errors.Is(err, engine.ErrNotVectorizable) {
					t.Fatalf("%s: err = %v, want ErrNotVectorizable", row.name, err)
				}
			}
		})
	}
}

// TestCanVectorizeSelects confirms the detector's positive side on every
// vectorizable workload.
func TestCanVectorizeSelects(t *testing.T) {
	const n = 7
	for _, tc := range vecCases() {
		if !engine.CanVectorize(tc.config(t, n, 5, nil, nil)) {
			t.Errorf("%s: CanVectorize = false, want true", tc.name)
		}
	}
}

// checkZeroAlloc is the perf contract: after warm-up, a fault-free
// vectorized round on a static schedule performs zero heap allocations on
// the engine goroutine, on every row keep selects.
func checkZeroAlloc(t *testing.T, keep rowFilter) {
	const n = 64
	for _, row := range runnerTable(n) {
		if !keep(row) {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			r, err := row.mk(pushsumConfig(n, 9))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for round := 0; round < 3; round++ { // warm-up: CSR build, slab and swap growth
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state vectorized round allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestVectorizedZeroAlloc: the inline vector kernel.
func TestVectorizedZeroAlloc(t *testing.T) { checkZeroAlloc(t, vecInlineRows) }

// TestParallelVecZeroAlloc: the vector kernel on slab workers.
func TestParallelVecZeroAlloc(t *testing.T) { checkZeroAlloc(t, parvecRows) }

// TestVectorizedStableRun drives the vectorized engine through the harness
// to a stable Push-Sum answer, confirming Runner integration end to end.
func TestVectorizedStableRun(t *testing.T) {
	const n = 8
	vec, err := engine.NewParallelVec(engine.Config{
		Schedule: dynamic.NewStatic(graph.BidirectionalRing(n)),
		Kind:     model.OutdegreeAware,
		Inputs:   caseInputs(n),
		Factory:  pushsum.NewAverageFactory(),
		Seed:     3,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer vec.Close()
	res, err := engine.RunUntilStable(vec, model.Discrete, 5, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("vectorized Push-Sum did not stabilize")
	}
}
