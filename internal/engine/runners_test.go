package engine_test

// The runner table: every property that holds for all executors runs once
// over the same rows — the one-slab generic engine ("seq", the reference),
// the retired "conc" name, the generic engine on 2, 3, n-1, n+1 (clamped
// to n) and GOMAXPROCS slabs, and the vector kernel inline ("vec") and on
// the same worker counts — with the vector rows skipped when a config is
// not vectorizable. Counts 2, 3 and n-1 leave uneven slabs for most n,
// n+1 exceeds n, and GOMAXPROCS follows go test -cpu.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/engine"
	"anonnet/internal/graph"
	"anonnet/internal/model"
)

// runnerRow is one executor configuration of the table.
type runnerRow struct {
	name string
	vec  bool // the vector kernel: applicable only to vectorizable configs
	mk   func(engine.Config) (engine.Runner, error)
}

func runnerTable(n int) []runnerRow {
	rows := []runnerRow{
		{name: "seq", mk: func(c engine.Config) (engine.Runner, error) { return engine.New(c) }},
		{name: "conc", mk: func(c engine.Config) (engine.Runner, error) { return engine.NewRunner(c, "conc", 0) }},
		{name: "vec", vec: true, mk: func(c engine.Config) (engine.Runner, error) { return engine.NewParallelVec(c, 1) }},
	}
	seen := map[int]bool{1: true}
	for _, k := range []int{2, 3, n - 1, n + 1, 0} {
		if seen[k] {
			continue
		}
		seen[k] = true
		suffix := fmt.Sprint(k)
		if k == 0 {
			suffix = "P" // ≤ 0 selects GOMAXPROCS
		}
		rows = append(rows,
			runnerRow{name: "shard" + suffix, mk: func(c engine.Config) (engine.Runner, error) { return engine.NewSharded(c, k) }},
			runnerRow{name: "parvec" + suffix, vec: true, mk: func(c engine.Config) (engine.Runner, error) { return engine.NewParallelVec(c, k) }})
	}
	return rows
}

// runnersNamed picks rows of the table by name, in the given order.
func runnersNamed(n int, names ...string) []runnerRow {
	byName := map[string]runnerRow{}
	for _, row := range runnerTable(n) {
		byName[row.name] = row
	}
	out := make([]runnerRow, len(names))
	for i, name := range names {
		out[i] = byName[name]
	}
	return out
}

// rowFilter selects the rows of the table a property runs on, so a
// property can be stated once and run per executor family.
type rowFilter func(runnerRow) bool

func allRows(runnerRow) bool { return true }

// genericRows: the generic engine on one slab ("seq", "conc") or k slabs.
func genericRows(row runnerRow) bool { return !row.vec }

// shardRows: the generic engine on k > 1 requested slabs.
func shardRows(row runnerRow) bool { return strings.HasPrefix(row.name, "shard") }

// vecRows: the vector kernel, inline and on slab workers.
func vecRows(row runnerRow) bool { return row.vec }

// vecInlineRows: the vector kernel inline on the calling goroutine.
func vecInlineRows(row runnerRow) bool { return row.name == "vec" }

// parvecRows: the vector kernel on k > 1 requested slab workers.
func parvecRows(row runnerRow) bool { return strings.HasPrefix(row.name, "parvec") }

// not inverts a filter.
func not(keep rowFilter) rowFilter { return func(row runnerRow) bool { return !keep(row) } }

// eachRunner builds a fresh config for every applicable row of the table
// that keep selects and calls fn with the row's runner in a subtest named
// after the row, closing the runner afterwards.
func eachRunner(t *testing.T, n int, keep rowFilter, config func() engine.Config, fn func(t *testing.T, r engine.Runner)) {
	t.Helper()
	for _, row := range runnerTable(n) {
		if !keep(row) {
			continue
		}
		cfg := config()
		if row.vec && !engine.CanVectorize(cfg) {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			r, err := row.mk(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			fn(t, r)
		})
	}
}

// checkTraces is the trace-equality property: for every case and seed,
// every runner of the table that keep selects reproduces the one-slab
// generic engine's output vector after every round, and its final
// statistics.
func checkTraces(t *testing.T, keep rowFilter, cases []workload, seeds []int64, inj engine.FaultInjector, starts []int) {
	const n = 7
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range seeds {
				ref, err := engine.New(tc.config(t, n, seed, inj, starts))
				if err != nil {
					t.Fatal(err)
				}
				want, err := engine.RunRounds(ref, tc.rounds)
				if err != nil {
					t.Fatal(err)
				}
				if fs := ref.Stats().Faults; inj != nil && fs.Dropped == 0 && fs.Duplicated == 0 && fs.Delayed == 0 {
					t.Fatalf("seed %d: plan with non-zero rates injected nothing over %d rounds: %+v", seed, tc.rounds, fs)
				}
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					eachRunner(t, n, keep, func() engine.Config { return tc.config(t, n, seed, inj, starts) }, func(t *testing.T, r engine.Runner) {
						got, err := engine.RunRounds(r, tc.rounds)
						if err != nil {
							t.Fatal(err)
						}
						for round := range want {
							if !reflect.DeepEqual(got[round], want[round]) {
								t.Fatalf("round %d: outputs %v, want %v", round+1, got[round], want[round])
							}
						}
						if r.Stats() != ref.Stats() {
							t.Fatalf("stats %+v, want %+v", r.Stats(), ref.Stats())
						}
					})
				})
			}
		})
	}
}

// orderAgent logs every received payload in delivery order, so its output
// exposes any divergence in the shuffled order of the multiset.
type orderAgent struct {
	value float64
	log   []string
}

func (a *orderAgent) Send() model.Message { return a.value }
func (a *orderAgent) Receive(msgs []model.Message) {
	for _, m := range msgs {
		a.log = append(a.log, fmt.Sprint(m))
	}
	a.log = append(a.log, "|")
}
func (a *orderAgent) Output() model.Value { return fmt.Sprint(a.log) }

// orderCase runs orderAgents on random connected graphs, fresh each round.
func orderCase() workload {
	return workload{
		name: "order",
		kind: model.SimpleBroadcast,
		factory: func(*testing.T, int) model.Factory {
			return func(in model.Input) model.Agent { return &orderAgent{value: in.Value} }
		},
		schedule: func(n int, seed int64) dynamic.Schedule {
			return &dynamic.RandomConnected{Vertices: n, ExtraEdges: 2, Seed: seed}
		},
		rounds: 8,
	}
}

// TestThreeEngineTraceEquality: every generic algorithm, plus the
// delivery-order recorder, is trace-identical on every runner of the
// table.
func TestThreeEngineTraceEquality(t *testing.T) {
	checkTraces(t, allRows, append(algoCases(), orderCase()), []int64{11, 23, 37}, nil, nil)
}

// TestVectorizedTraceEquality: every vectorizable workload is
// trace-identical on the generic runners and the inline vector kernel.
func TestVectorizedTraceEquality(t *testing.T) {
	checkTraces(t, not(parvecRows), vecCases(), []int64{11, 23, 37}, nil, nil)
}

// TestParallelVecTraceEquality completes it on the vector kernel's slab
// workers: uneven slabs, more workers than agents, and GOMAXPROCS.
func TestParallelVecTraceEquality(t *testing.T) {
	checkTraces(t, parvecRows, vecCases(), []int64{11, 23, 37}, nil, nil)
}

// TestFaultTraceEqualityAcrossEngines repeats the generic property under a
// non-zero fault plan: drop, duplication, delay, stall, and crash-restart.
func TestFaultTraceEqualityAcrossEngines(t *testing.T) {
	checkTraces(t, allRows, algoCases(), []int64{23}, faultPlanInjector(t), nil)
}

// TestVectorizedFaultTraceEquality repeats the vectorizable property under
// the same plan: the vector kernel's pending store, its per-slab late
// scratch, and re-initialization through the vector contract on restart.
func TestVectorizedFaultTraceEquality(t *testing.T) {
	checkTraces(t, not(parvecRows), vecCases(), []int64{23}, faultPlanInjector(t), nil)
}

// TestParallelVecFaultTraceEquality completes it on the slab workers.
func TestParallelVecFaultTraceEquality(t *testing.T) {
	checkTraces(t, parvecRows, vecCases(), []int64{23}, faultPlanInjector(t), nil)
}

// asyncStarts staggers the activation rounds of the properties' 7 agents.
var asyncStarts = []int{1, 3, 1, 5, 2, 1, 4}

// TestAsyncStartsTraceEquality checks the activity mask under asynchronous
// starts on the generic algorithms: sleeping agents neither send nor
// receive on any runner.
func TestAsyncStartsTraceEquality(t *testing.T) {
	checkTraces(t, allRows, algoCases(), []int64{23}, nil, asyncStarts)
}

// TestVectorizedAsyncStarts repeats it on the vectorizable workloads: late
// joiners enter the per-value instances exactly as on the one-slab
// generic engine.
func TestVectorizedAsyncStarts(t *testing.T) {
	checkTraces(t, not(parvecRows), vecCases(), []int64{23}, nil, asyncStarts)
}

// TestParallelVecAsyncStarts completes it on the slab workers.
func TestParallelVecAsyncStarts(t *testing.T) {
	checkTraces(t, parvecRows, vecCases(), []int64{23}, nil, asyncStarts)
}

// checkLifecycle pins the lifecycle contract on the rows keep selects:
// Workers reports the effective slab count in [1, n], Close is
// idempotent, Step after Close fails, and Corrupt after Close is a no-op.
func checkLifecycle(t *testing.T, keep rowFilter) {
	const n = 4
	eachRunner(t, n, keep, func() engine.Config { return pushsumConfig(n, 1) }, func(t *testing.T, r engine.Runner) {
		if w := r.(interface{ Workers() int }).Workers(); w < 1 || w > n {
			t.Fatalf("Workers() = %d, want 1..%d", w, n)
		}
		if pv, ok := r.(*engine.ParallelVec); ok && pv.Width() != 2 {
			t.Fatalf("Width() = %d, want 2", pv.Width())
		}
		r.Close()
		r.Close()
		if err := r.Step(); err == nil {
			t.Fatal("Step after Close should fail")
		}
		if r.Corrupt(1) != 0 {
			t.Fatal("Corrupt after Close should be a no-op")
		}
	})
}

// TestShardedLifecycle: the generic engine, on one slab and on k.
func TestShardedLifecycle(t *testing.T) { checkLifecycle(t, genericRows) }

// TestVectorizedLifecycle: the inline vector kernel.
func TestVectorizedLifecycle(t *testing.T) { checkLifecycle(t, vecInlineRows) }

// TestParallelVecLifecycle: the vector kernel on slab workers.
func TestParallelVecLifecycle(t *testing.T) { checkLifecycle(t, parvecRows) }

// checkRejectsShapeShift: a schedule whose vertex count changes mid-run
// is a bug in the adversary; every runner keep selects must surface it,
// not corrupt state.
func checkRejectsShapeShift(t *testing.T, keep rowFilter) {
	const n = 3
	config := func() engine.Config {
		cfg := pushsumConfig(n, 1)
		cfg.Schedule = &dynamic.Func{Vertices: n, Fn: func(tt int) *graph.Graph {
			if tt < 3 {
				return graph.Complete(n)
			}
			return graph.Complete(n + 1)
		}}
		return cfg
	}
	eachRunner(t, n, keep, config, func(t *testing.T, r engine.Runner) {
		for round := 1; round <= 2; round++ {
			if err := r.Step(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if err := r.Step(); err == nil {
			t.Fatal("accepted a schedule that changed vertex count")
		}
	})
}

// TestStepRejectsShapeShiftingSchedule: the one-slab engine and the
// vector kernel.
func TestStepRejectsShapeShiftingSchedule(t *testing.T) { checkRejectsShapeShift(t, not(shardRows)) }

// TestShardedRejectsShapeShift: the generic engine on k slabs.
func TestShardedRejectsShapeShift(t *testing.T) { checkRejectsShapeShift(t, shardRows) }

// TestSlabCountClampedToN: a slab count far above the agent count (job
// specs accept up to 2²⁰) starts at most n workers, and Workers reports
// the effective count.
func TestSlabCountClampedToN(t *testing.T) {
	const n, slabs = 4, 1 << 12
	for _, name := range []string{"shard", "vec"} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r, err := engine.NewRunner(pushsumConfig(n, 1), name, slabs)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if delta := runtime.NumGoroutine() - before; delta > n {
				t.Fatalf("NewRunner(%s, %d) started %d goroutines for %d agents", name, slabs, delta, n)
			}
			w, ok := r.(interface{ Workers() int })
			if !ok || w.Workers() != n {
				t.Fatalf("NewRunner(%s, %d) = %T, want Workers() = %d", name, slabs, r, n)
			}
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
