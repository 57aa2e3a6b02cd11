package stat

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
