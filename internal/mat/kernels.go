package mat

// Unrolled kernels for the sparse-tier hot paths (the rank-|S| γ update
// kernel and the sparse triangular solves). The historical Dot loop
// carries one serial floating-point dependency chain, which makes it
// latency-bound; DotFast splits the reduction across independent
// accumulators so the CPU can overlap the multiply-adds. Splitting the
// chain changes the summation order, so its results differ from Dot in
// the last bits — callers on the sub-threshold dense path, whose
// experiment outputs are bitwise-reproducibility contracts, must keep
// using Dot and AxpyVec. The sparse tier carries a 1e-9-agreement
// contract instead (see PERF.md), which these kernels satisfy with room
// to spare.

// DotFast returns the inner product of x and y using eight accumulators
// (measured on the CI-class Xeon: ~1.45× over the serial loop at the
// γ-kernel vector lengths; wider unrolls stopped paying).
func DotFast(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for len(x) >= 8 {
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
		s4 += x[4] * y[4]
		s5 += x[5] * y[5]
		s6 += x[6] * y[6]
		s7 += x[7] * y[7]
		x = x[8:]
		y = y[8:]
	}
	for i, v := range x {
		s0 += v * y[i]
	}
	return ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
}

// AxpyFast adds alpha*x to y in place with a four-way unrolled loop. The
// stores are independent, so the unroll exists to amortize loop overhead
// and keep the load/store pipeline full rather than to break a dependency
// chain; the element results are identical to AxpyVec (each y[i] is
// updated by exactly one fused expression).
func AxpyFast(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	for len(x) >= 4 {
		y[0] += alpha * x[0]
		y[1] += alpha * x[1]
		y[2] += alpha * x[2]
		y[3] += alpha * x[3]
		x = x[4:]
		y = y[4:]
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}
