package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: a p90 needs at least 100 samples.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) and
// the number of samples that lie strictly beyond its rank; an empty
// sample reads 0.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// summary is a latency sample: its median, its 90th percentile, and the
// sample count both were taken from.
type summary struct {
	P50, P90 float64
	N        int
	// Beyond is the number of samples beyond P90; the P90 is reported only
	// when it is at least minBeyond.
	Beyond int
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p50, _ := quantile(s, 0.5)
	p90, beyond := quantile(s, 0.9)
	return summary{P50: p50, P90: p90, N: len(s), Beyond: beyond}
}

func median(xs []float64) float64 {
	return summarize(xs).P50
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
