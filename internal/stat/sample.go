package stat

import (
	"math"
	"math/rand"
	"sort"
)

// NormalVec fills a new slice of length n with independent N(0, sigma²)
// samples drawn from rng.
func NormalVec(rng *rand.Rand, n int, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * sigma
	}
	return out
}

// Mean returns the arithmetic mean of x (0 for an empty slice).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance of x (0 for fewer than two
// samples).
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x)-1)
}

// Quantile returns the q-th empirical quantile (0 <= q <= 1) of x using
// linear interpolation between order statistics. It panics on an empty
// slice.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		panic("stat: Quantile of empty slice")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(x))
	copy(sorted, x)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FractionAtLeast returns the fraction of entries in x greater than or
// equal to threshold.
func FractionAtLeast(x []float64, threshold float64) float64 {
	if len(x) == 0 {
		return 0
	}
	n := 0
	for _, v := range x {
		if v >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(x))
}
