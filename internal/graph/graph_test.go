package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAddEdgeAndDegrees(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // parallel
	g.AddEdge(1, 2)
	g.AddEdge(2, 2)
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4", g.M())
	}
	if g.OutDegree(0) != 2 || g.InDegree(1) != 2 {
		t.Fatalf("degrees: out(0)=%d in(1)=%d, want 2 and 2", g.OutDegree(0), g.InDegree(1))
	}
	if g.EdgeCount(0, 1) != 2 {
		t.Fatalf("EdgeCount(0,1) = %d, want 2", g.EdgeCount(0, 1))
	}
	if !g.HasEdge(2, 2) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestNeighbors(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(3, 0)
	out := g.OutNeighbors(0)
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v, want [1 2]", out)
	}
	in := g.InNeighbors(0)
	if len(in) != 1 || in[0] != 3 {
		t.Fatalf("InNeighbors(0) = %v, want [3]", in)
	}
}

func TestSelfLoops(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	if g.HasSelfLoops() {
		t.Fatal("HasSelfLoops true with missing loop at 1")
	}
	h := g.EnsureSelfLoops()
	if !h.HasSelfLoops() {
		t.Fatal("EnsureSelfLoops failed")
	}
	if g.HasEdge(1, 1) {
		t.Fatal("EnsureSelfLoops mutated the receiver")
	}
	if h2 := h.EnsureSelfLoops(); h2 != h {
		t.Fatal("EnsureSelfLoops should return the receiver when loops exist")
	}
}

func TestSymmetry(t *testing.T) {
	if !BidirectionalRing(5).IsSymmetric() {
		t.Fatal("bidirectional ring not symmetric")
	}
	if Ring(5).IsSymmetric() {
		t.Fatal("unidirectional R_5 reported symmetric")
	}
	sym := Ring(5).Symmetrized()
	if !sym.IsSymmetric() {
		t.Fatal("Symmetrized not symmetric")
	}
}

func TestAssignPorts(t *testing.T) {
	g := Ring(4)
	if g.PortsValid() {
		t.Fatal("unlabelled graph reported valid ports")
	}
	p := g.AssignPorts()
	if !p.PortsValid() {
		t.Fatal("AssignPorts produced invalid labelling")
	}
	if p.N() != g.N() || p.M() != g.M() {
		t.Fatal("AssignPorts changed the graph shape")
	}
}

func TestProductAndComplete(t *testing.T) {
	r := Ring(4)
	// With self-loops, the t-fold product of a ring reaches distance ≤ t.
	p := Product(r, r)
	for v := 0; v < 4; v++ {
		for d := 0; d <= 2; d++ {
			if !p.HasEdge(v, (v+d)%4) {
				t.Fatalf("product misses %d→%d", v, (v+d)%4)
			}
		}
		if p.HasEdge(v, (v+3)%4) {
			t.Fatalf("product has too-long edge %d→%d", v, (v+3)%4)
		}
	}
	prod := r
	for i := 0; i < 2; i++ {
		prod = Product(prod, r)
	}
	if !prod.IsComplete() {
		t.Fatal("R_4 product of diameter-many factors should be complete")
	}
}

func TestStronglyConnectedAndDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		sc   bool
		diam int
	}{
		{"ring5", Ring(5), true, 4},
		{"bidi6", BidirectionalRing(6), true, 3},
		{"complete4", Complete(4), true, 1},
		{"path4", Path(4), true, 3},
		{"star5", Star(5), true, 2},
		{"hyper3", Hypercube(3), true, 3},
		{"torus33", Torus(3, 3), true, 2},
	}
	for _, c := range cases {
		if got := c.g.StronglyConnected(); got != c.sc {
			t.Errorf("%s: StronglyConnected = %t, want %t", c.name, got, c.sc)
		}
		if got := c.g.Diameter(); got != c.diam {
			t.Errorf("%s: Diameter = %d, want %d", c.name, got, c.diam)
		}
	}
	disc := New(3)
	disc.AddEdge(0, 1)
	if disc.StronglyConnected() {
		t.Fatal("disconnected graph reported strongly connected")
	}
	if disc.Diameter() != -1 {
		t.Fatal("Diameter of disconnected graph should be -1")
	}
}

func TestSCCs(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	// vertex 4 isolated
	sccs := g.SCCs()
	if len(sccs) != 3 {
		t.Fatalf("SCCs = %v, want 3 components", sccs)
	}
	sizes := map[int]int{}
	for _, c := range sccs {
		sizes[len(c)]++
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Fatalf("SCC sizes wrong: %v", sccs)
	}
}

func TestDeBruijn(t *testing.T) {
	g := DeBruijn(2, 3)
	if g.N() != 8 {
		t.Fatalf("DeBruijn(2,3) has %d vertices, want 8", g.N())
	}
	if !g.StronglyConnected() {
		t.Fatal("de Bruijn graph not strongly connected")
	}
	if !g.HasSelfLoops() {
		t.Fatal("DeBruijn lacks self-loops")
	}
}

func TestRandomBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 2; n <= 12; n += 5 {
		if g := RandomStronglyConnected(n, n, rng); !g.StronglyConnected() || !g.HasSelfLoops() {
			t.Fatalf("RandomStronglyConnected(%d) invalid", n)
		}
		if g := RandomSymmetricConnected(n, n, rng); !g.StronglyConnected() || !g.IsSymmetric() || !g.HasSelfLoops() {
			t.Fatalf("RandomSymmetricConnected(%d) invalid", n)
		}
		if g := RandomGeometric(n, 0.2, rng); !g.StronglyConnected() || !g.IsSymmetric() {
			t.Fatalf("RandomGeometric(%d) invalid", n)
		}
	}
}

func TestMultigraphBuilder(t *testing.T) {
	g := Multigraph([][]int{{1, 2}, {3, 0}})
	if g.EdgeCount(0, 1) != 2 || g.EdgeCount(1, 0) != 3 || g.EdgeCount(0, 0) != 1 {
		t.Fatalf("Multigraph counts wrong: %v", g)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Ring(3)
	h := g.Clone()
	h.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Fatal("Clone shares edge storage")
	}
}

func TestEccentricity(t *testing.T) {
	p := Path(4)
	if got := p.Eccentricity(0); got != 3 {
		t.Fatalf("Eccentricity(0) = %d, want 3", got)
	}
	if got := p.Eccentricity(1); got != 2 {
		t.Fatalf("Eccentricity(1) = %d, want 2", got)
	}
}

func TestDOTOutput(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	g.AddPortEdge(0, 1, 1)
	dot := g.DOT("test", []string{"a", "b"})
	for _, want := range []string{`digraph "test"`, `0 [label="0: a"]`, "0 -> 0;", `0 -> 1 [label="p1"]`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic.
	if dot != g.DOT("test", []string{"a", "b"}) {
		t.Error("DOT not deterministic")
	}
}

// Property: (u, w) is an edge of Product(g1, g2) iff there is a 2-step
// path u→k→w — checked against a brute-force oracle on random graphs.
func TestQuickProductIsComposition(t *testing.T) {
	f := func(seed int64, edges1, edges2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		g1 := RandomStronglyConnected(n, int(edges1%8), rng)
		g2 := RandomStronglyConnected(n, int(edges2%8), rng)
		p := Product(g1, g2)
		for u := 0; u < n; u++ {
			for w := 0; w < n; w++ {
				want := false
				for k := 0; k < n && !want; k++ {
					want = g1.HasEdge(u, k) && g2.HasEdge(k, w)
				}
				if p.HasEdge(u, w) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the diameter equals the number of products of g with itself
// needed to reach completeness (for strongly connected graphs with
// self-loops).
func TestQuickDiameterViaProducts(t *testing.T) {
	f := func(seed int64, extra uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		g := RandomStronglyConnected(n, int(extra%10), rng)
		d := g.Diameter()
		prod := g
		steps := 1
		for !prod.IsComplete() {
			prod = Product(prod, g)
			steps++
			if steps > n+1 {
				return false
			}
		}
		return steps == d || (d == 0 && steps == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// appendStronglyConnected and appendSymmetricConnected are the random
// builders written one AddEdge at a time, with HasEdge as the duplicate
// check: the reference for the counting-pass builders.
func appendStronglyConnected(n, extraEdges int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
		g.AddEdge(perm[i], perm[(i+1)%n])
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

func appendSymmetricConnected(n, extraEdges int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
	}
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[rng.Intn(i)]
		g.AddEdge(u, v)
		g.AddEdge(v, u)
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
			g.AddEdge(v, u)
		}
	}
	return g
}

// sameGraph fails unless g and want have the same edge list and the same
// out- and in-edge index lists at every vertex.
func sameGraph(t *testing.T, name string, g, want *Graph) {
	t.Helper()
	if g.N() != want.N() || !slices.Equal(g.Edges(), want.Edges()) {
		t.Fatalf("%s: edges %v, want %v", name, g.Edges(), want.Edges())
	}
	for v := 0; v < g.N(); v++ {
		if !slices.Equal(g.OutEdges(v), want.OutEdges(v)) || !slices.Equal(g.InEdges(v), want.InEdges(v)) {
			t.Fatalf("%s: vertex %d out %v in %v, want out %v in %v",
				name, v, g.OutEdges(v), g.InEdges(v), want.OutEdges(v), want.InEdges(v))
		}
	}
}

// TestRandomBuildersMatchAppendBuilt pins the counting-pass random
// builders to the append-built reference: same RNG draws, same edge
// order, same adjacency, for sparse to dense extra-arc counts. The
// dynamic schedules rebuild these graphs every round and the static
// random specs build them once, so both traces depend on this.
func TestRandomBuildersMatchAppendBuilt(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 512} {
		for _, extra := range []int{0, n / 8, n, 4 * n} {
			for seed := int64(1); seed <= 25; seed++ {
				name := fmt.Sprintf("n=%d extra=%d seed=%d", n, extra, seed)
				sameGraph(t, "strongly connected "+name,
					RandomStronglyConnected(n, extra, rand.New(rand.NewSource(seed))),
					appendStronglyConnected(n, extra, rand.New(rand.NewSource(seed))))
				sameGraph(t, "symmetric "+name,
					RandomSymmetricConnected(n, extra, rand.New(rand.NewSource(seed))),
					appendSymmetricConnected(n, extra, rand.New(rand.NewSource(seed))))
			}
		}
	}
}

// TestCountingPassListsStayPrivate adds edges after a counting-pass build:
// each vertex's list is capped at its own length, so growing one list
// must leave its neighbours' lists untouched.
func TestCountingPassListsStayPrivate(t *testing.T) {
	g := RandomStronglyConnected(6, 6, rand.New(rand.NewSource(3)))
	want := appendStronglyConnected(6, 6, rand.New(rand.NewSource(3)))
	for _, h := range []*Graph{g, want} {
		for v := 0; v < 6; v++ {
			h.AddEdge(v, (v+1)%6)
			h.AddEdge((v+2)%6, v)
		}
	}
	for v := 0; v < 6; v++ {
		if !slices.Equal(g.OutEdges(v), want.OutEdges(v)) || !slices.Equal(g.InEdges(v), want.InEdges(v)) {
			t.Fatalf("vertex %d: out %v in %v, want out %v in %v",
				v, g.OutEdges(v), g.InEdges(v), want.OutEdges(v), want.InEdges(v))
		}
	}
}
