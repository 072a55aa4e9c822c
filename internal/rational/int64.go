package rational

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The checked helpers below keep results in the symmetric range
// |x| ≤ 2⁶³−1, so that every result can be negated safely.

// MulInt64 returns a·b and whether it fits.
func MulInt64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(absUint64(a), absUint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// subInt64 returns a−b and whether it fits.
func subInt64(a, b int64) (int64, bool) {
	c := a - b
	// Overflow iff the operands' signs differ and the result's sign
	// differs from a's.
	if (a^b) < 0 && (a^c) < 0 || c == math.MinInt64 {
		return 0, false
	}
	return c, true
}

// GCD64 returns the greatest common divisor of |a| and |b|, or 1 when
// both are zero, so that dividing by it is always safe.
func GCD64(a, b int64) int64 {
	x, y := absUint64(a), absUint64(b)
	for y != 0 {
		x, y = y, x%y
	}
	if x == 0 || x > math.MaxInt64 {
		return 1 // gcd(MinInt64, MinInt64) = 2⁶³ is not an int64
	}
	return int64(x)
}

func absUint64(a int64) uint64 {
	if a < 0 {
		return uint64(-a) // two's complement: MinInt64 maps to 2⁶³
	}
	return uint64(a)
}

// IntegerKernel returns the positive coprime integer vector z with
// ker M = ℝz of an integer matrix given as a grid, with the outcomes of
// (*Matrix).IntegerKernelVector: the same vector, the same "dimension ≠ 1"
// and "zero or mixed-sign entry" errors. It eliminates on int64 and falls
// back to the big.Rat path only when an intermediate value overflows.
func IntegerKernel(grid [][]int) ([]int, error) {
	z, err := kernelInt64(grid)
	if err == errOverflow {
		return FromInts(grid).IntegerKernelVector()
	}
	return z, err
}

// errOverflow reports that an int64 elimination step overflowed.
var errOverflow = errors.New("rational: int64 overflow")

// kernelInt64 is IntegerKernel without the fallback: it returns
// errOverflow when a step overflows int64.
//
// It runs the Gauss–Jordan elimination of rowReduce fraction-free: the
// pivot row is divided by the gcd of its entries instead of its pivot, and
// row r becomes p·r − a_{r,c}·pivot, then is divided by its own gcd. Each
// row stays a nonzero multiple of the corresponding rational row, so both
// paths choose the same pivots and find the same kernel.
func kernelInt64(grid [][]int) ([]int, error) {
	rows := len(grid)
	if rows == 0 {
		panic("rational: IntegerKernel: empty grid")
	}
	cols := len(grid[0])
	a := make([]int64, rows*cols)
	for i, row := range grid {
		if len(row) != cols {
			panic(fmt.Sprintf("rational: IntegerKernel: ragged row %d", i))
		}
		for j, v := range row {
			if int64(v) == math.MinInt64 {
				return nil, errOverflow
			}
			a[i*cols+j] = int64(v)
		}
	}
	pivotOf := make([]int, cols) // pivot row of each pivot column, else -1
	for j := range pivotOf {
		pivotOf[j] = -1
	}
	row := 0
	for col := 0; col < cols && row < rows; col++ {
		p := -1
		for r := row; r < rows; r++ {
			if a[r*cols+col] != 0 {
				p = r
				break
			}
		}
		if p == -1 {
			continue
		}
		if p != row {
			for j := 0; j < cols; j++ {
				a[row*cols+j], a[p*cols+j] = a[p*cols+j], a[row*cols+j]
			}
		}
		prow := a[row*cols : (row+1)*cols]
		normalizeRow(prow)
		pv := prow[col]
		for r := 0; r < rows; r++ {
			f := a[r*cols+col]
			if r == row || f == 0 {
				continue
			}
			rr := a[r*cols : (r+1)*cols]
			for j := range rr { // prow is zero left of col
				x, ok1 := MulInt64(pv, rr[j])
				y, ok2 := MulInt64(f, prow[j])
				d, ok3 := subInt64(x, y)
				if !(ok1 && ok2 && ok3) {
					return nil, errOverflow
				}
				rr[j] = d
			}
			normalizeRow(rr)
		}
		pivotOf[col] = row
		row++
	}
	if free := cols - row; free != 1 {
		return nil, fmt.Errorf("rational: kernel has dimension %d, want 1", free)
	}
	f := 0
	for pivotOf[f] != -1 {
		f++
	}
	// x_f = l, the lcm of the pivots, and x_c = −a_{r,f}·(l / a_{r,c}) for
	// the pivot column c of row r: the rational basis vector times l.
	l := int64(1)
	for c, r := range pivotOf {
		if r == -1 {
			continue
		}
		pv := a[r*cols+c]
		if pv < 0 {
			pv = -pv
		}
		var fits bool
		if l, fits = MulInt64(l/GCD64(l, pv), pv); !fits {
			return nil, errOverflow
		}
	}
	x := make([]int64, cols)
	x[f] = l
	for c, r := range pivotOf {
		if r == -1 {
			continue
		}
		v, fits := MulInt64(-a[r*cols+f], l/a[r*cols+c])
		if !fits {
			return nil, errOverflow
		}
		x[c] = v
	}
	if x[0] == 0 {
		return nil, fmt.Errorf("rational: kernel vector has zero entry 0")
	}
	sign := x[0] > 0
	g := int64(0)
	for i, v := range x {
		if v == 0 || (v > 0) != sign {
			return nil, fmt.Errorf("rational: kernel vector entry %d has unexpected sign", i)
		}
		g = GCD64(g, v)
	}
	z := make([]int, cols)
	for i, v := range x {
		if v < 0 {
			v = -v
		}
		z[i] = int(v / g)
	}
	return z, nil
}

// normalizeRow divides a row by the gcd of its entries.
func normalizeRow(r []int64) {
	g := int64(0)
	for _, v := range r {
		if v != 0 {
			g = GCD64(g, v)
		}
	}
	if g > 1 {
		for j := range r {
			r[j] /= g
		}
	}
}
