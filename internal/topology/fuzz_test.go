package topology_test

// FuzzSnapshotBuild checks the CSR invariants on random digraphs, with and
// without churn: degree sums close, every vertex keeps its §2.1 self-loop,
// and each destination's entries follow the delivery-order invariant —
// sources ascending, edge insertion order — that makes the engines'
// traces byte-identical by construction. The reference order is recomputed
// here from the graph the naive O(n·m) way, independent of the counting
// sorts in the builder.

import (
	"testing"

	"anonnet/internal/dynamic"
	"anonnet/internal/faults"
	"anonnet/internal/graph"
	"anonnet/internal/model"
	"anonnet/internal/topology"
)

// buildGraph decodes a fuzz byte string into a digraph on n vertices: bytes
// are consumed pairwise as (from, to) edges, then self-loops are ensured so
// the graph is a legal round graph.
func buildGraph(n int, edges []byte) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < len(edges) && i < 120; i += 2 {
		g.AddEdge(int(edges[i])%n, int(edges[i+1])%n)
	}
	return g.EnsureSelfLoops()
}

// checkSnapshot asserts every Snapshot invariant against the round graph it
// was built from.
func checkSnapshot(t *testing.T, g *graph.Graph, s *topology.Snapshot, kind model.Kind, round int) {
	t.Helper()
	n, m := g.N(), g.M()
	if s.N() != n || s.M() != m {
		t.Fatalf("round %d: snapshot is %d×%d, graph is %d×%d", round, s.N(), s.M(), n, m)
	}
	if len(s.Start) != n+1 || len(s.Src) < m || len(s.Slot) < m || len(s.Port) < m || len(s.Outdeg) < n {
		t.Fatalf("round %d: array lengths Start=%d Src=%d Slot=%d Port=%d Outdeg=%d for n=%d m=%d",
			round, len(s.Start), len(s.Src), len(s.Slot), len(s.Port), len(s.Outdeg), n, m)
	}
	if s.Start[0] != 0 || int(s.Start[n]) != m {
		t.Fatalf("round %d: Start[0]=%d Start[n]=%d, want 0 and %d", round, s.Start[0], s.Start[n], m)
	}
	outSum := 0
	for i := 0; i < n; i++ {
		if s.Start[i] > s.Start[i+1] {
			t.Fatalf("round %d: Start not monotone at %d: %d > %d", round, i, s.Start[i], s.Start[i+1])
		}
		if s.OutDegree(i) != g.OutDegree(i) {
			t.Fatalf("round %d: Outdeg[%d]=%d, graph says %d", round, i, s.OutDegree(i), g.OutDegree(i))
		}
		if s.InDegree(i) != g.InDegree(i) {
			t.Fatalf("round %d: InDegree(%d)=%d, graph says %d", round, i, s.InDegree(i), g.InDegree(i))
		}
		outSum += s.OutDegree(i)
	}
	if outSum != m {
		t.Fatalf("round %d: Σ Outdeg = %d, want m = %d", round, outSum, m)
	}
	// Every destination hears itself: a self-loop entry in each range.
	for j := 0; j < n; j++ {
		found := false
		for k := s.Start[j]; k < s.Start[j+1]; k++ {
			if int(s.Src[k]) == j {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("round %d: destination %d has no self-loop entry", round, j)
		}
	}
	// Delivery-order invariant: within destination j the entries are the
	// edges into j taken sources-ascending, insertion order within a source
	// — exactly the order the sequential engine fills j's inbox.
	type entry struct{ src, port int }
	for j := 0; j < n; j++ {
		var want []entry
		for src := 0; src < n; src++ {
			for e := 0; e < m; e++ {
				if ed := g.Edge(e); ed.From == src && ed.To == j {
					want = append(want, entry{src, ed.Port})
				}
			}
		}
		if got := s.InDegree(j); got != len(want) {
			t.Fatalf("round %d: destination %d has %d entries, want %d", round, j, got, len(want))
		}
		for k, w := range want {
			pos := int(s.Start[j]) + k
			if int(s.Src[pos]) != w.src || int(s.Port[pos]) != w.port {
				t.Fatalf("round %d: destination %d entry %d is (src=%d, port=%d), want (src=%d, port=%d)",
					round, j, k, s.Src[pos], s.Port[pos], w.src, w.port)
			}
			wantSlot := 0
			if kind == model.OutputPortAware {
				wantSlot = w.port - 1
			}
			if int(s.Slot[pos]) != wantSlot {
				t.Fatalf("round %d: destination %d entry %d has slot %d, want %d (kind %v)",
					round, j, k, s.Slot[pos], wantSlot, kind)
			}
		}
	}
}

func FuzzSnapshotBuild(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 2, 2, 0}, int64(7), false)
	f.Add(uint8(5), []byte{0, 1, 0, 1, 3, 4, 4, 3, 2, 2}, int64(11), true)
	f.Add(uint8(9), []byte{}, int64(0), true)
	f.Add(uint8(4), []byte{1, 0, 2, 0, 3, 0, 0, 1, 0, 2, 0, 3}, int64(23), false)
	f.Fuzz(func(t *testing.T, nb uint8, edges []byte, seed int64, churn bool) {
		n := 2 + int(nb%12)
		g := buildGraph(n, edges)

		// Static, broadcast model: one build, checked directly.
		p := topology.NewProvider(dynamic.NewStatic(g), model.SimpleBroadcast)
		snap, err := p.Round(1)
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, g, snap, model.SimpleBroadcast, 1)

		// Same graph with a valid port labelling under the output-port
		// model: Slot must become port−1.
		pg := g.AssignPorts()
		pp := topology.NewProvider(dynamic.NewStatic(pg), model.OutputPortAware)
		psnap, err := pp.Round(1)
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, pg, psnap, model.OutputPortAware, 1)

		if !churn {
			return
		}
		// Churn-wrapped: a fresh graph per window, invariants on every
		// round's snapshot against that round's actual graph.
		sched, err := faults.WrapSchedule(dynamic.NewStatic(g), seed,
			&faults.ChurnPlan{Drop: 0.4, Window: 2, Guard: faults.GuardOff})
		if err != nil {
			t.Fatal(err)
		}
		cp := topology.NewProvider(sched, model.SimpleBroadcast)
		for r := 1; r <= 6; r++ {
			rg := sched.At(r)
			if rg == nil {
				t.Fatalf("round %d: churned schedule returned nil", r)
			}
			rsnap, err := cp.Round(r)
			if err != nil {
				t.Fatal(err)
			}
			checkSnapshot(t, rg, rsnap, model.SimpleBroadcast, r)
		}
	})
}
