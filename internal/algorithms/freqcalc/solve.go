// Package freqcalc implements the positive half of Theorem 4.1 and its
// corollaries: computing any frequency-based function in a static strongly
// connected anonymous network with outdegree awareness, output port
// awareness, or symmetric communications — and any multiset-based function
// when the network size is known (Cor. 4.3) or leaders are present
// (Cor. 4.4).
//
// The algorithm layers the §4.2 pipeline on the distributed minimum-base
// agent of package minbase: from the candidate base B_{w,b}, each agent
// recovers the fibre cardinalities up to a common factor — the positive
// coprime integer vector z with ker M = ℝz — and outputs f evaluated on the
// reconstructed value multiset.
package freqcalc

import (
	"errors"
	"fmt"

	"anonnet/internal/algorithms/minbase"
	"anonnet/internal/model"
	"anonnet/internal/rational"
)

// SolveOutdegree solves the linear system M z = 0 of §4.2 for the general
// outdegree-aware case: M_{i,j} = d_{i,j} for i ≠ j and M_{i,i} = d_{i,i} −
// b_i, by exact fraction-free Gaussian elimination on int64, with big.Rat
// only when a step overflows (rational.IntegerKernel). The paper's
// Perron–Frobenius argument shows ker M is one-dimensional and spanned by
// a positive vector when the base is genuine; a kernel of any other shape
// marks the candidate as spurious and is reported as an error.
func SolveOutdegree(b *minbase.Base) ([]int, error) {
	m := b.N()
	grid := make([][]int, m)
	cells := make([]int, m*m)
	for i := 0; i < m; i++ {
		grid[i] = cells[i*m : (i+1)*m]
		copy(grid[i], b.D[i])
		if b.Out[i] < 0 {
			return nil, fmt.Errorf("freqcalc: base vertex %d has unknown outdegree", i)
		}
		grid[i][i] -= b.Out[i]
	}
	z, err := rational.IntegerKernel(grid)
	if err != nil {
		return nil, fmt.Errorf("freqcalc: outdegree system: %w", err)
	}
	return z, nil
}

// SolvePorts returns the fibre cardinalities for the output-port-aware
// case: every fibration is a covering, so all fibres have the same
// cardinality (eq. (3)) and z = (1, …, 1). The covering identity
// b_i = Σ_j d_{i,j} is verified to reject spurious candidates.
func SolvePorts(b *minbase.Base) ([]int, error) {
	z := make([]int, b.N())
	for i := range z {
		z[i] = 1
		sum := 0
		for j := range b.D[i] {
			sum += b.D[i][j]
		}
		if b.Out[i] != sum {
			return nil, fmt.Errorf("freqcalc: port candidate is not a covering at vertex %d: outdegree %d, base out-edges %d",
				i, b.Out[i], sum)
		}
	}
	return z, nil
}

// SolveSymmetric solves the detailed-balance system of §4.3 (eq. (4)):
// d_{i,j}·z_j = d_{j,i}·z_i, by propagating ratios along a spanning tree of
// the base's support and verifying every off-tree edge — the closed form the
// paper gives without Gaussian elimination. Every product is checked: a
// base whose ratios leave int64 is reported as an error, never wrapped.
func SolveSymmetric(b *minbase.Base) ([]int, error) {
	m := b.N()
	if !b.IsSymmetricQuotient() {
		return nil, fmt.Errorf("freqcalc: base support is not symmetric")
	}
	num := make([]int64, m) // z_i = num_i / den_i
	den := make([]int64, m)
	num[0], den[0] = 1, 1
	visited := make([]bool, m)
	visited[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for j := 0; j < m; j++ {
			if visited[j] || b.D[i][j] == 0 {
				continue
			}
			// eq. (4): z_j = z_i · d_{j,i} / d_{i,j}.
			n, ok1 := rational.MulInt64(num[i], int64(b.D[j][i]))
			d, ok2 := rational.MulInt64(den[i], int64(b.D[i][j]))
			if !ok1 || !ok2 {
				return nil, errSymmetricOverflow
			}
			g := rational.GCD64(n, d)
			num[j], den[j] = n/g, d/g
			visited[j] = true
			queue = append(queue, j)
		}
	}
	for i := 0; i < m; i++ {
		if !visited[i] {
			return nil, fmt.Errorf("freqcalc: base support is disconnected at vertex %d", i)
		}
	}
	// Verify detailed balance on every edge (off-tree consistency).
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if b.D[i][j] == 0 {
				continue
			}
			// d_{i,j}·z_j == d_{j,i}·z_i ⟺ d_ij·num_j·den_i == d_ji·num_i·den_j.
			lhs, ok1 := mul3(int64(b.D[i][j]), num[j], den[i])
			rhs, ok2 := mul3(int64(b.D[j][i]), num[i], den[j])
			if !ok1 || !ok2 {
				return nil, errSymmetricOverflow
			}
			if lhs != rhs {
				return nil, fmt.Errorf("freqcalc: detailed balance fails on base edge %d—%d", i, j)
			}
		}
	}
	// Scale to the coprime positive integer vector.
	l := int64(1)
	for i := 0; i < m; i++ {
		var ok bool
		if l, ok = rational.MulInt64(l/rational.GCD64(l, den[i]), den[i]); !ok {
			return nil, errSymmetricOverflow
		}
	}
	z := make([]int, m)
	g := int64(0)
	for i := 0; i < m; i++ {
		v, ok := rational.MulInt64(num[i], l/den[i])
		if !ok {
			return nil, errSymmetricOverflow
		}
		z[i] = int(v)
		g = rational.GCD64(g, v)
	}
	if g > 1 {
		for i := range z {
			z[i] /= int(g)
		}
	}
	return z, nil
}

var errSymmetricOverflow = errors.New("freqcalc: detailed-balance ratios overflow int64")

// mul3 returns a·b·c and whether it fits in int64.
func mul3(a, b, c int64) (int64, bool) {
	ab, ok := rational.MulInt64(a, b)
	if !ok {
		return 0, false
	}
	return rational.MulInt64(ab, c)
}

// SolveFor solves the kernel equation of the model's fibration class:
// the outdegree system for outdegree-preserving fibrations, equal fibres
// for coverings, detailed balance for symmetric graphs. Models whose
// executions lift along any fibration cannot recover fibre cardinalities.
func SolveFor(lift model.Lifting, b *minbase.Base) ([]int, error) {
	switch lift {
	case model.LiftOutdegree:
		return SolveOutdegree(b)
	case model.LiftCovering:
		return SolvePorts(b)
	case model.LiftSymmetric:
		return SolveSymmetric(b)
	default:
		return nil, fmt.Errorf("freqcalc: lifting class %d cannot recover fibre cardinalities (Theorem 4.1 needs od, op, or symmetry)", int(lift))
	}
}
