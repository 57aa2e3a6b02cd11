package stat

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
