// Package rational implements the exact linear algebra of §4.2: Gaussian
// elimination over ℚ (the paper performs it over the Euclidean ring ℤ; over
// ℚ with a final integer scaling the result is identical), one-dimensional
// kernel extraction producing the coprime positive integer vector z with
// ker M = ℝz, and the best-rational-approximation rounding in
// ℚ_N = {p/q : 0 ≤ p ≤ q ≤ N} used by the exact dynamic algorithms (§5.4).
//
// IntegerKernel solves integer systems fraction-free on int64 with checked
// arithmetic (int64.go); the big.Rat Matrix here is its fallback when a
// step overflows, and its oracle in the tests.
package rational

import (
	"fmt"
	"math/big"
)

// Matrix is a dense matrix of rationals.
type Matrix struct {
	rows, cols int
	a          []*big.Rat // row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("rational: NewMatrix(%d, %d): shape must be positive", rows, cols))
	}
	m := &Matrix{rows: rows, cols: cols, a: make([]*big.Rat, rows*cols)}
	for i := range m.a {
		m.a[i] = new(big.Rat)
	}
	return m
}

// FromInts builds a matrix from an integer grid.
func FromInts(grid [][]int) *Matrix {
	rows := len(grid)
	if rows == 0 {
		panic("rational: FromInts: empty grid")
	}
	cols := len(grid[0])
	m := NewMatrix(rows, cols)
	for i, row := range grid {
		if len(row) != cols {
			panic(fmt.Sprintf("rational: FromInts: ragged row %d", i))
		}
		for j, v := range row {
			m.Set(i, j, big.NewRat(int64(v), 1))
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns a copy of entry (i, j).
func (m *Matrix) At(i, j int) *big.Rat { return new(big.Rat).Set(m.a[i*m.cols+j]) }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v *big.Rat) { m.a[i*m.cols+j].Set(v) }

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	for i, v := range m.a {
		c.a[i].Set(v)
	}
	return c
}

// Rank returns the rank of m, computed by fraction-exact Gaussian
// elimination.
func (m *Matrix) Rank() int {
	_, rank := m.Clone().rowReduce()
	return rank
}

// rowReduce puts the receiver in reduced row-echelon form in place,
// returning the pivot column of each pivot row and the rank.
func (m *Matrix) rowReduce() (pivots []int, rank int) {
	row := 0
	for col := 0; col < m.cols && row < m.rows; col++ {
		// Find a pivot in this column at or below `row`.
		p := -1
		for r := row; r < m.rows; r++ {
			if m.a[r*m.cols+col].Sign() != 0 {
				p = r
				break
			}
		}
		if p == -1 {
			continue
		}
		m.swapRows(row, p)
		inv := new(big.Rat).Inv(m.a[row*m.cols+col])
		for j := col; j < m.cols; j++ {
			m.a[row*m.cols+j].Mul(m.a[row*m.cols+j], inv)
		}
		for r := 0; r < m.rows; r++ {
			if r == row || m.a[r*m.cols+col].Sign() == 0 {
				continue
			}
			factor := new(big.Rat).Set(m.a[r*m.cols+col])
			for j := col; j < m.cols; j++ {
				t := new(big.Rat).Mul(factor, m.a[row*m.cols+j])
				m.a[r*m.cols+j].Sub(m.a[r*m.cols+j], t)
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return pivots, row
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	for c := 0; c < m.cols; c++ {
		m.a[i*m.cols+c], m.a[j*m.cols+c] = m.a[j*m.cols+c], m.a[i*m.cols+c]
	}
}

// Kernel returns a basis of ker m (vectors x with m·x = 0), one []*big.Rat
// per basis vector. The basis is the standard one obtained from the reduced
// row-echelon form, with free variables set to 1.
func (m *Matrix) Kernel() [][]*big.Rat {
	red := m.Clone()
	pivots, _ := red.rowReduce()
	isPivot := make([]bool, m.cols)
	pivotRowOf := make(map[int]int, len(pivots))
	for r, c := range pivots {
		isPivot[c] = true
		pivotRowOf[c] = r
	}
	var basis [][]*big.Rat
	for free := 0; free < m.cols; free++ {
		if isPivot[free] {
			continue
		}
		vec := make([]*big.Rat, m.cols)
		for i := range vec {
			vec[i] = new(big.Rat)
		}
		vec[free].SetInt64(1)
		for c, r := range pivotRowOf {
			// Pivot variable c = -Σ_{free j} red[r][j]·x_j.
			vec[c].Neg(red.a[r*m.cols+free])
		}
		basis = append(basis, vec)
	}
	return basis
}

// Mul applies m to a rational vector.
func (m *Matrix) Mul(x []*big.Rat) []*big.Rat {
	if len(x) != m.cols {
		panic(fmt.Sprintf("rational: Mul: vector length %d, want %d", len(x), m.cols))
	}
	out := make([]*big.Rat, m.rows)
	for i := range out {
		out[i] = new(big.Rat)
		for j := 0; j < m.cols; j++ {
			t := new(big.Rat).Mul(m.a[i*m.cols+j], x[j])
			out[i].Add(out[i], t)
		}
	}
	return out
}

// IntegerKernelVector requires ker m to be one-dimensional with a vector of
// all-nonzero same-sign entries (the situation of §4.2, where the kernel is
// spanned by the fibre cardinalities) and returns the unique positive
// integer vector z with coprime entries such that ker M = ℝ z. It reports an
// error if the kernel dimension differs from one or the kernel vector has a
// zero or mixed-sign entry.
func (m *Matrix) IntegerKernelVector() ([]int, error) {
	basis := m.Kernel()
	if len(basis) != 1 {
		return nil, fmt.Errorf("rational: kernel has dimension %d, want 1", len(basis))
	}
	return ScaleToCoprimeInts(basis[0])
}

// ScaleToCoprimeInts scales a rational vector with all-nonzero, same-sign
// entries to the positive integer vector with coprime entries spanning the
// same line.
func ScaleToCoprimeInts(v []*big.Rat) ([]int, error) {
	if len(v) == 0 {
		return nil, fmt.Errorf("rational: empty vector")
	}
	sign := v[0].Sign()
	if sign == 0 {
		return nil, fmt.Errorf("rational: kernel vector has zero entry 0")
	}
	lcm := big.NewInt(1)
	for i, x := range v {
		if x.Sign() != sign {
			return nil, fmt.Errorf("rational: kernel vector entry %d has unexpected sign", i)
		}
		lcm = lcmInt(lcm, x.Denom())
	}
	ints := make([]*big.Int, len(v))
	gcd := new(big.Int)
	for i, x := range v {
		n := new(big.Int).Mul(x.Num(), new(big.Int).Div(lcm, x.Denom()))
		n.Abs(n)
		ints[i] = n
		gcd.GCD(nil, nil, gcd, n)
	}
	out := make([]int, len(v))
	for i, n := range ints {
		q := new(big.Int).Div(n, gcd)
		if !q.IsInt64() {
			return nil, fmt.Errorf("rational: kernel entry %d does not fit in int64", i)
		}
		out[i] = int(q.Int64())
	}
	return out, nil
}

func lcmInt(a, b *big.Int) *big.Int {
	g := new(big.Int).GCD(nil, nil, a, b)
	return new(big.Int).Mul(a, new(big.Int).Div(b, g))
}
