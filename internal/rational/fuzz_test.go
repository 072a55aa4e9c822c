package rational

import (
	"math"
	"testing"
)

// FuzzBestApprox cross-checks the continued-fraction best approximation
// against the exhaustive oracle for arbitrary inputs.
func FuzzBestApprox(f *testing.F) {
	f.Add(0.5, 10)
	f.Add(1.0/3, 7)
	f.Add(math.Pi-3, 113)
	f.Add(0.0, 1)
	f.Add(0.9999999, 30)
	f.Fuzz(func(t *testing.T, x float64, maxDen int) {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || x >= 1 {
			t.Skip()
		}
		if maxDen < 1 || maxDen > 200 {
			t.Skip()
		}
		got := BestApprox(x, maxDen)
		if got.Denom().Int64() > int64(maxDen) {
			t.Fatalf("BestApprox(%v, %d) = %v exceeds the denominator bound", x, maxDen, got)
		}
		want := bruteBest(x, maxDen)
		gv, _ := got.Float64()
		wv, _ := want.Float64()
		if math.Abs(math.Abs(gv-x)-math.Abs(wv-x)) > 1e-12 {
			t.Fatalf("BestApprox(%v, %d) = %v (err %g); oracle %v (err %g)",
				x, maxDen, got, math.Abs(gv-x), want, math.Abs(wv-x))
		}
	})
}

// FuzzRoundToQN checks the int64 rounding to ℚ_N against the big.Rat
// reference for finite x ∈ [−0.5, 1.5] and N ∈ [1, 2¹⁶]: the same
// rational, already in lowest terms.
func FuzzRoundToQN(f *testing.F) {
	f.Add(0.5, 6)
	f.Add(1.0/3, 12)
	f.Add(0.3334, 6)
	f.Add(-0.25, 4)
	f.Add(1.25, 4)
	f.Add(0.9999999, 65536)
	f.Add(1e-13, 512)
	f.Fuzz(func(t *testing.T, x float64, n int) {
		if math.IsNaN(x) || x < -0.5 || x > 1.5 {
			t.Skip()
		}
		n = 1 + int(uint(n)%(1<<16))
		p, q := RoundToQN(x, n)
		want := roundToQNRat(x, n)
		if p != want.Num().Int64() || q != want.Denom().Int64() {
			t.Fatalf("RoundToQN(%v, %d) = %d/%d, reference %v", x, n, p, q, want)
		}
	})
}

// fuzzGrid decodes a small integer matrix (at most 8×8) from fuzz bytes:
// a shape byte, a mode byte, then per entry a big-endian int32 and a
// shift byte, so entries range from tiny up to ±2³¹. Mode 1
// rewrites the last column so that a positive vector read from the tail
// of data lies in the kernel, which makes one-dimensional kernels common.
func fuzzGrid(data []byte) [][]int {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	shape := next()
	rows, cols := 1+int(shape>>4)%8, 1+int(shape&15)%8
	withKernel := next()%2 == 1
	grid := make([][]int, rows)
	for i := range grid {
		grid[i] = make([]int, cols)
		for j := range grid[i] {
			v := int32(next())<<24 | int32(next())<<16 | int32(next())<<8 | int32(next())
			grid[i][j] = int(v >> (next() % 32))
		}
	}
	if withKernel && cols > 1 {
		z := make([]int, cols)
		for j := range z {
			z[j] = 1 + int(next()%7)
		}
		z[cols-1] = 1
		for i := range grid {
			s := 0
			for j := 0; j < cols-1; j++ {
				s += grid[i][j] * z[j]
			}
			grid[i][cols-1] = -s
		}
	}
	return grid
}

// overflowSeed returns fuzz bytes for a grid of the given shape byte with
// a one-dimensional kernel and entries near ±2³¹, enough to overflow the
// int64 elimination and exercise the big.Rat fallback.
func overflowSeed(shape byte) []byte {
	data := []byte{shape, 1}
	for i := 0; i < 64; i++ {
		data = append(data, byte(0x40+i%29), byte(i*37), byte(i*101), byte(i*53+1), 0)
	}
	return append(data, 3, 5, 2, 6, 1, 4, 2, 3)
}

// FuzzIntegerKernel checks the int64 kernel against the big.Rat oracle:
// wherever the int64 elimination does not overflow, both give the same z
// and the same error, and IntegerKernel (with its overflow fallback)
// always does.
func FuzzIntegerKernel(f *testing.F) {
	f.Add([]byte{0x22, 1, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0})                      // 3×3 with a kernel
	f.Add([]byte{0x33, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) // 4×4 raw
	f.Add([]byte{0x11, 1, 0, 0, 0, 3, 24, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 1})   // 2×2 with a kernel
	f.Add(overflowSeed(0x55))                                                 // 6×6 with a kernel, entries near 2³¹
	f.Add(overflowSeed(0x77))                                                 // 8×8
	f.Fuzz(func(t *testing.T, data []byte) {
		grid := fuzzGrid(data)
		want, wantErr := FromInts(grid).IntegerKernelVector()
		fast, fastErr := kernelInt64(grid)
		if fastErr != errOverflow {
			if (fastErr == nil) != (wantErr == nil) || !equalInts(fast, want) {
				t.Fatalf("grid %v: int64 path %v (%v), big.Rat path %v (%v)", grid, fast, fastErr, want, wantErr)
			}
			if fastErr != nil && fastErr.Error() != wantErr.Error() {
				t.Fatalf("grid %v: int64 error %q, big.Rat error %q", grid, fastErr, wantErr)
			}
		}
		got, gotErr := IntegerKernel(grid)
		if (gotErr == nil) != (wantErr == nil) || !equalInts(got, want) {
			t.Fatalf("grid %v: IntegerKernel %v (%v), big.Rat path %v (%v)", grid, got, gotErr, want, wantErr)
		}
	})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
