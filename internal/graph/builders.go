package graph

// Builders for the network families used as workloads by the experiment
// harness. Every builder includes the self-loop at each vertex that the
// paper's communication graphs assume (§2.1), except where noted.

import (
	"fmt"
	"math"
	"math/rand"
)

// Ring returns the unidirectional ring R_n: i → (i+1) mod n, plus
// self-loops. Rings are the impossibility workhorses of §4.1.
func Ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// BidirectionalRing returns the bidirectional ring of §4.1: edges both ways
// around the cycle, plus self-loops.
func BidirectionalRing(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
		if n > 1 {
			g.AddEdge(i, (i+1)%n)
			if n > 2 {
				g.AddEdge(i, (i+n-1)%n)
			}
		}
	}
	return g
}

// Complete returns the complete graph with self-loops.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Path returns the bidirectional path 0—1—…—(n-1) with self-loops.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
		if i+1 < n {
			g.AddEdge(i, i+1)
			g.AddEdge(i+1, i)
		}
	}
	return g
}

// Star returns the bidirectional star with center 0 and n-1 leaves, with
// self-loops. All leaves lie in a single fibre of the minimum base.
func Star(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
	}
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
		g.AddEdge(i, 0)
	}
	return g
}

// Hypercube returns the d-dimensional bidirectional hypercube on 2^d
// vertices with self-loops. Its minimum base is a single vertex, making it
// a maximally symmetric workload.
func Hypercube(d int) *Graph {
	if d < 0 || d > 20 {
		panic(fmt.Sprintf("graph: Hypercube(%d): dimension out of range [0, 20]", d))
	}
	n := 1 << d
	g := New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, v)
		for b := 0; b < d; b++ {
			g.AddEdge(v, v^(1<<b))
		}
	}
	return g
}

// Torus returns the rows×cols bidirectional torus grid with self-loops.
func Torus(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("graph: Torus(%d, %d): dimensions must be positive", rows, cols))
	}
	n := rows * cols
	g := New(n)
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := id(r, c)
			g.AddEdge(v, v)
			for _, w := range []int{id(r+1, c), id(r-1, c), id(r, c+1), id(r, c-1)} {
				if w != v && !g.HasEdge(v, w) {
					g.AddEdge(v, w)
				}
			}
		}
	}
	return g
}

// DeBruijn returns the de Bruijn graph B(k, d) on k^d vertices: vertex v
// (a base-k word of length d) has an edge to every (v·k + c) mod k^d.
// Self-loops occur naturally at the constant words; missing ones are added.
// De Bruijn graphs are classic fibration examples: B(k, d+1) fibres over
// B(k, d).
func DeBruijn(k, d int) *Graph {
	if k < 1 || d < 0 {
		panic(fmt.Sprintf("graph: DeBruijn(%d, %d): need k ≥ 1, d ≥ 0", k, d))
	}
	n := 1
	for i := 0; i < d; i++ {
		n *= k
	}
	g := New(n)
	for v := 0; v < n; v++ {
		for c := 0; c < k; c++ {
			g.AddEdge(v, (v*k+c)%n)
		}
	}
	return g.EnsureSelfLoops()
}

// RandomStronglyConnected returns a random strongly connected digraph with
// self-loops: a random Hamiltonian cycle plus extra random arcs.
func RandomStronglyConnected(n, extraEdges int, rng *rand.Rand) *Graph {
	g := New(n)
	a := newArcSet(n, 2*n+max(extraEdges, 0))
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		a.add(i, i)
		a.add(perm[i], perm[(i+1)%n])
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !a.has(u, v) {
			a.add(u, v)
		}
	}
	g.setEdges(a.edges)
	return g
}

// RandomSymmetricConnected returns a random connected bidirectional graph
// with self-loops: a random spanning tree plus extra random bidirectional
// edges.
func RandomSymmetricConnected(n, extraEdges int, rng *rand.Rand) *Graph {
	g := New(n)
	a := newArcSet(n, 3*n+2*max(extraEdges, 0))
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		a.add(i, i)
	}
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[rng.Intn(i)]
		a.add(u, v)
		a.add(v, u)
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !a.has(u, v) {
			a.add(u, v)
			a.add(v, u)
		}
	}
	g.setEdges(a.edges)
	return g
}

// arcSet collects the arcs of a random builder in insertion order and
// answers "is there a u→v arc yet?" in O(out-degree of u), like HasEdge,
// by chaining each arc to the previous one from the same source. The
// random builders run per round on dynamic schedules and with n extra
// arcs on static graphs of up to 2²⁰ vertices, so a scan of the whole
// arc list would be quadratic.
type arcSet struct {
	edges []Edge
	last  []int // last[u]: 1 + index of u's latest arc, 0 while u has none
	prev  []int // prev[i]: 1 + index of the arc before arc i from its source, 0 for none
}

func newArcSet(n, capacity int) arcSet {
	return arcSet{
		edges: make([]Edge, 0, capacity),
		last:  make([]int, n),
		prev:  make([]int, 0, capacity),
	}
}

func (a *arcSet) add(u, v int) {
	a.edges = append(a.edges, Edge{From: u, To: v})
	a.prev = append(a.prev, a.last[u])
	a.last[u] = len(a.edges)
}

func (a *arcSet) has(u, v int) bool {
	for i := a.last[u]; i != 0; i = a.prev[i-1] {
		if a.edges[i-1].To == v {
			return true
		}
	}
	return false
}

// RandomGeometric returns a random geometric graph: n points uniform in the
// unit square, bidirectional edges between points within the given radius,
// self-loops everywhere. If the result is disconnected it is repaired by
// linking nearest points of distinct components, modelling the sensor
// networks that motivate the paper's introduction.
func RandomGeometric(n int, radius float64, rng *rand.Rand) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i)
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if math.Hypot(dx, dy) <= radius {
				g.AddEdge(i, j)
				g.AddEdge(j, i)
			}
		}
	}
	// Repair connectivity: repeatedly link the globally nearest pair of
	// vertices lying in different components.
	for {
		comps := g.SCCs()
		if len(comps) == 1 {
			return g
		}
		compOf := make([]int, n)
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = ci
			}
		}
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if compOf[i] == compOf[j] {
					continue
				}
				d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
				if d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		g.AddEdge(bi, bj)
		g.AddEdge(bj, bi)
	}
}

// Multigraph builds a multigraph from an edge multiplicity matrix:
// counts[i][j] parallel edges i→j. Used to construct minimum bases directly
// in tests.
func Multigraph(counts [][]int) *Graph {
	n := len(counts)
	g := New(n)
	for i := 0; i < n; i++ {
		if len(counts[i]) != n {
			panic(fmt.Sprintf("graph: Multigraph: row %d has %d entries, want %d", i, len(counts[i]), n))
		}
		for j := 0; j < n; j++ {
			for c := 0; c < counts[i][j]; c++ {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}
