package engine_test

// The shared workloads of the engine property tests: the generic
// algorithm cases (every algorithm package on its network) and the
// vectorizable ones (the linear mass-passing algorithms under every model
// they run on). They live in an external test package so they can drive
// the engines through the real algorithm factories (core imports engine,
// so the internal test package cannot).

import (
	"math/rand"
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

// workload is one (algorithm, model, network) case of the engine
// properties.
type workload struct {
	name     string
	kind     model.Kind
	factory  func(t *testing.T, n int) model.Factory
	schedule func(n int, seed int64) dynamic.Schedule
	inputs   func(n int) []model.Input // nil: caseInputs
	rounds   int
}

func algoCases() []workload {
	return []workload{
		{
			name: "gossip",
			kind: model.SimpleBroadcast,
			factory: func(t *testing.T, _ int) model.Factory {
				f, err := gossip.NewFactory(funcs.Max())
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.RandomStronglyConnected(n, n, rand.New(rand.NewSource(seed))))
			},
			rounds: 12,
		},
		{
			name: "minbase",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T, _ int) model.Factory {
				f, err := minbase.NewFactory(model.OutdegreeAware)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.RandomStronglyConnected(n, n/2, rand.New(rand.NewSource(seed))))
			},
			rounds: 10,
		},
		{
			name: "freqcalc",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T, _ int) model.Factory {
				f, err := freqcalc.NewFactory(model.OutdegreeAware, funcs.Average(), model.Help{})
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return dynamic.NewStatic(graph.Ring(n))
			},
			rounds: 3, // minbase+solve rounds are expensive; 3 covers the refinement
		},
		{
			name: "pushsum",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T, _ int) model.Factory {
				return pushsum.NewAverageFactory()
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return &dynamic.SplitRing{Vertices: n} // dynamic: CSR rebuilt every round
			},
			rounds: 12,
		},
		{
			name: "metropolis",
			kind: model.Symmetric,
			factory: func(t *testing.T, _ int) model.Factory {
				f, err := metropolis.NewFactory(metropolis.MaxDegree, 16)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: func(n int, seed int64) dynamic.Schedule {
				return &dynamic.RandomConnected{Vertices: n, ExtraEdges: 1, Seed: seed}
			},
			rounds: 12,
		},
	}
}

// caseInputs repeats 3, 1, 4, 1, 5 over n agents.
func caseInputs(n int) []model.Input {
	pattern := []float64{3, 1, 4, 1, 5}
	out := make([]model.Input, n)
	for i := range out {
		out[i] = model.Input{Value: pattern[i%len(pattern)]}
	}
	return out
}

func vecCases() []workload {
	splitRing := func(n int, seed int64) dynamic.Schedule {
		return &dynamic.SplitRing{Vertices: n}
	}
	randConn := func(n int, seed int64) dynamic.Schedule {
		return &dynamic.RandomConnected{Vertices: n, ExtraEdges: 1, Seed: seed}
	}
	staticRing := func(n int, seed int64) dynamic.Schedule {
		return dynamic.NewStatic(graph.BidirectionalRing(n))
	}
	// A nonzero KnownN in the help is a placeholder for the run's n.
	freqFactory := func(fn funcs.Func, help model.Help) func(t *testing.T, n int) model.Factory {
		return func(t *testing.T, n int) model.Factory {
			if help.KnownN != 0 {
				help.KnownN = n
			}
			f, err := pushsum.NewFrequencyFactory(fn, help)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	metroFreqFactory := func(fn funcs.Func, help model.Help) func(t *testing.T, n int) model.Factory {
		return func(t *testing.T, n int) model.Factory {
			if help.KnownN != 0 {
				help.KnownN = n
			}
			f, err := metropolis.NewFreqFactory(fn, metropolis.MaxDegree, help)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	leaderInputs := func(n int) []model.Input {
		in := caseInputs(n)
		in[0].Leader = true
		return in
	}
	return []workload{
		{
			name: "pushsum-average/od-dynamic",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T, n int) model.Factory {
				return pushsum.NewAverageFactory()
			},
			schedule: splitRing,
			rounds:   12,
		},
		{
			name: "pushsum-average/od-static",
			kind: model.OutdegreeAware,
			factory: func(t *testing.T, n int) model.Factory {
				return pushsum.NewAverageFactory()
			},
			schedule: staticRing,
			rounds:   12,
		},
		{
			name:     "pushsum-freq-approx/od",
			kind:     model.OutdegreeAware,
			factory:  freqFactory(funcs.Average(), model.Help{}),
			schedule: splitRing,
			rounds:   10,
		},
		{
			name:     "pushsum-freq-bound/od",
			kind:     model.OutdegreeAware,
			factory:  freqFactory(funcs.Average(), model.Help{BoundN: 16}),
			schedule: splitRing,
			rounds:   10,
		},
		{
			name:     "pushsum-freq-exact/od",
			kind:     model.OutdegreeAware,
			factory:  freqFactory(funcs.Sum(), model.Help{KnownN: -1}),
			schedule: splitRing,
			rounds:   10,
		},
		{
			name:     "pushsum-freq-leader/od",
			kind:     model.OutdegreeAware,
			factory:  freqFactory(funcs.Sum(), model.Help{Leaders: 1}),
			schedule: splitRing,
			inputs:   leaderInputs,
			rounds:   10,
		},
		{
			name: "metropolis-maxdeg/sym",
			kind: model.Symmetric,
			factory: func(t *testing.T, n int) model.Factory {
				f, err := metropolis.NewFactory(metropolis.MaxDegree, 16)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: randConn,
			rounds:   12,
		},
		{
			name: "metropolis-maxdeg/bc",
			kind: model.SimpleBroadcast,
			factory: func(t *testing.T, n int) model.Factory {
				f, err := metropolis.NewFactory(metropolis.MaxDegree, 16)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			schedule: staticRing,
			rounds:   12,
		},
		{
			name:     "metropolis-freq-bound/sym",
			kind:     model.Symmetric,
			factory:  metroFreqFactory(funcs.Average(), model.Help{BoundN: 16}),
			schedule: randConn,
			rounds:   10,
		},
		{
			name:     "metropolis-freq-exact/sym",
			kind:     model.Symmetric,
			factory:  metroFreqFactory(funcs.Sum(), model.Help{BoundN: 16, KnownN: -1}),
			schedule: randConn,
			rounds:   10,
		},
	}
}

func (tc workload) config(t *testing.T, n int, seed int64, inj engine.FaultInjector, starts []int) engine.Config {
	inputs := caseInputs(n)
	if tc.inputs != nil {
		inputs = tc.inputs(n)
	}
	return engine.Config{
		Schedule: tc.schedule(n, seed),
		Kind:     tc.kind,
		Inputs:   inputs,
		Factory:  tc.factory(t, n),
		Seed:     seed,
		Starts:   starts,
		Faults:   inj,
	}
}
