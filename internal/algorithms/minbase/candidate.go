package minbase

import (
	"fmt"
	"slices"
	"strings"

	"anonnet/internal/graph"
	"anonnet/internal/multiset"
)

// Base is a candidate minimum base B_{w,b} (§4.2): vertex i carries the
// input value w_i of its fibre (with the leader flag of §4.5), the common
// outdegree b_i of the fibre's members, and D[i][j] counts the base edges
// i→j (the d_{i,j} of eq. (1)).
type Base struct {
	Values []float64
	Leader []bool
	Out    []int
	D      [][]int
}

// N returns the number of base vertices (fibres).
func (b *Base) N() int { return len(b.Values) }

// Multiset returns the value multiset obtained by giving value w_i the
// multiplicity z_i — the reconstructed input multiset of §4.2, up to the
// common factor k of eq. (2).
func (b *Base) Multiset(z []int) *multiset.Multiset[float64] {
	m := multiset.New[float64]()
	for i, v := range b.Values {
		m.AddN(v, z[i])
	}
	return m
}

// LeaderWeight returns Σ_{j ∈ L_B} z_j, the denominator of eq. (5).
func (b *Base) LeaderWeight(z []int) int {
	s := 0
	for i, isLeader := range b.Leader {
		if isLeader {
			s += z[i]
		}
	}
	return s
}

// IsSymmetricQuotient reports whether D has a symmetric support
// (d_{i,j} > 0 ⟺ d_{j,i} > 0), which the base of a bidirectional network
// always has (§4.3).
func (b *Base) IsSymmetricQuotient() bool {
	for i := range b.D {
		for j := range b.D[i] {
			if (b.D[i][j] > 0) != (b.D[j][i] > 0) {
				return false
			}
		}
	}
	return true
}

// String renders a stable description for test output.
func (b *Base) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "base(m=%d;", b.N())
	for i := range b.Values {
		fmt.Fprintf(&sb, " v%d=%g/out%d", i, b.Values[i], b.Out[i])
		if b.Leader[i] {
			sb.WriteString("/L")
		}
	}
	sb.WriteString(";")
	for i := range b.D {
		for j := range b.D[i] {
			if b.D[i][j] > 0 {
				fmt.Fprintf(&sb, " %d>%d*%d", i, j, b.D[i][j])
			}
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// ExtractBase extracts a candidate minimum base from a signature table.
//
// A level ℓ ≥ 1 is *conservative* when the labels known at ℓ are in
// bijection with the labels known at ℓ-1 via their Prev component and all
// their in-references resolve at ℓ-1 — i.e. the refinement step ℓ-1 → ℓ did
// not split any known class. The extractor finds the longest stretch of
// consecutive conservative levels and reads the base off the stretch's
// middle level: once the table is complete up to the true stable partition
// (round n + D), the stretch covers it and the middle level is both stable
// and completely known, so the candidate equals the minimum base; taking
// the middle guards against transient stretches among the youngest,
// still-incomplete levels.
func ExtractBase(t *Table) (*Base, bool) {
	if t == nil {
		return nil, false
	}
	mid, ok := t.candidateLevel()
	if !ok {
		return nil, false
	}
	return buildBase(t, mid)
}

// candidateLevel returns the middle level of the longest conservative
// stretch, the level ExtractBase reads the base off.
func (t *Table) candidateLevel() (int, bool) {
	bestStart, bestLen := t.longestConservativeRun()
	if bestLen == 0 {
		return 0, false
	}
	mid := bestStart + bestLen/2
	if mid > bestStart+bestLen-1 {
		mid = bestStart + bestLen - 1
	}
	return mid, true
}

// levelShape is the size of a level ℓ and of level ℓ-1. Within one table
// levels only grow, so an unchanged shape means unchanged levels.
type levelShape struct{ level, size, below int }

// shape returns the shape of a conservative level.
func (t *Table) shape(l int) levelShape {
	return levelShape{l, len(t.levels[l].labels), len(t.levels[l-1].labels)}
}

// longestConservativeRun returns the first level and the length of the
// longest stretch of consecutive conservative levels (length 0 if none).
func (t *Table) longestConservativeRun() (bestStart, bestLen int) {
	maxLevel := t.maxLevel()
	runStart := -1
	for l := 1; l <= maxLevel+1; l++ {
		if l <= maxLevel && t.conservative(l) {
			if runStart == -1 {
				runStart = l
			}
			continue
		}
		if runStart != -1 {
			if runLen := l - runStart; runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
			runStart = -1
		}
	}
	return bestStart, bestLen
}

// buildBase reads the base off conservative level l: vertices are the
// level's labels (sorted, for determinism); an in-reference to a previous-
// level label m contributes edges from ψ⁻¹(m).
func buildBase(t *Table, l int) (*Base, bool) {
	cur := t.levels[l].labels
	labels := make([]Label, 0, len(cur))
	for lab := range cur {
		labels = append(labels, lab)
	}
	slices.SortFunc(labels, compareLabels)
	sigs := make([]Sig, len(labels))
	// ψ⁻¹: previous-level label → vertex whose Prev it is.
	prevInv := make(map[Label]int, len(labels))
	for i, lab := range labels {
		sigs[i] = t.entries[cur[lab]].Sig
		prevInv[sigs[i].Prev] = i
	}
	n := len(labels)
	b := &Base{
		Values: make([]float64, n),
		Leader: make([]bool, n),
		Out:    make([]int, n),
		D:      make([][]int, n),
	}
	cells := make([]int, n*n)
	for i, s := range sigs {
		in, err := DecodeInput(s.Value)
		if err != nil {
			return nil, false
		}
		b.Values[i] = in.Value
		b.Leader[i] = in.Leader
		b.Out[i] = s.Out
		b.D[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	for i, s := range sigs {
		for _, r := range s.In {
			src, ok := prevInv[r.Prev]
			if !ok {
				return nil, false
			}
			b.D[src][i] += r.Count
		}
	}
	return b, true
}

// VertexLabel renders the isomorphism-relevant data of base vertex i:
// value, outdegree, and leader flag.
func (b *Base) VertexLabel(i int) string {
	l := ""
	if b.Leader[i] {
		l = "/L"
	}
	return fmt.Sprintf("%g/out%d%s", b.Values[i], b.Out[i], l)
}

// ToGraph converts the base to a graph plus vertex labels, so candidates
// can be compared up to isomorphism (minimum bases are unique only up to
// isomorphism, §3.2, and the distributed extractor's vertex order follows
// hash labels, which shift as the extraction level advances).
func (b *Base) ToGraph() (*graph.Graph, []string) {
	g := graph.New(b.N())
	labels := make([]string, b.N())
	for i := 0; i < b.N(); i++ {
		labels[i] = b.VertexLabel(i)
		for j := 0; j < b.N(); j++ {
			for c := 0; c < b.D[i][j]; c++ {
				g.AddEdge(i, j)
			}
		}
	}
	return g, labels
}

// Isomorphic reports whether two bases are isomorphic as valued
// multigraphs.
func (b *Base) Isomorphic(other *Base) bool {
	if b.N() != other.N() {
		return false
	}
	g1, l1 := b.ToGraph()
	g2, l2 := other.ToGraph()
	return graph.Isomorphic(g1, g2, l1, l2)
}
