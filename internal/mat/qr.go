package mat

// QR holds the thin QR factorization of an m×n matrix A with m >= n:
// A = Q*R where Q is m×n with orthonormal columns and R is n×n upper
// triangular.
type QR struct {
	Q *Dense
	R *Dense
}

// qrApplyReflector applies the Householder reflector (v, beta) rooted at
// row k to columns [jlo, jhi) of the m×n row-major block data: for each
// column, s = β·vᵀcol followed by col -= s·v.
func qrApplyReflector(v []float64, beta float64, data []float64, m, n, k, jlo, jhi int) {
	for j := jlo; j < jhi; j++ {
		var s float64
		for i := k; i < m; i++ {
			s += v[i-k] * data[i*n+j]
		}
		s *= beta
		for i := k; i < m; i++ {
			data[i*n+j] -= s * v[i-k]
		}
	}
}

// ComputeQR computes the thin QR factorization of a using Householder
// reflections, on the calling goroutine. It requires Rows >= Cols.
func ComputeQR(a *Dense) *QR {
	m, n := a.rows, a.cols
	if m < n {
		panic("mat: ComputeQR requires rows >= cols")
	}
	// Work on a copy; accumulate the Householder vectors in-place below the
	// diagonal and the R factor on and above it.
	r := a.Clone()
	betas := make([]float64, n)
	vs := make([][]float64, n)

	for k := 0; k < n; k++ {
		// Build the Householder vector for column k.
		x := make([]float64, m-k)
		for i := k; i < m; i++ {
			x[i-k] = r.data[i*n+k]
		}
		alpha := Norm2(x)
		if x[0] > 0 {
			alpha = -alpha
		}
		v := CopyVec(x)
		v[0] -= alpha
		vnorm := Norm2(v)
		var beta float64
		if vnorm > 0 {
			for i := range v {
				v[i] /= vnorm
			}
			beta = 2
		}
		betas[k] = beta
		vs[k] = v

		if beta != 0 {
			// Apply the reflector to the trailing block r[k:m, k:n].
			qrApplyReflector(v, beta, r.data, m, n, k, k, n)
		}
	}

	// Extract R (upper triangular n×n).
	rr := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rr.data[i*n+j] = r.data[i*n+j]
		}
	}

	// Form thin Q by applying the reflectors to the first n columns of I.
	q := NewDense(m, n)
	for j := 0; j < n; j++ {
		q.data[j*n+j] = 1
	}
	for k := n - 1; k >= 0; k-- {
		v, beta := vs[k], betas[k]
		if beta == 0 {
			continue
		}
		qrApplyReflector(v, beta, q.data, m, n, k, 0, n)
	}
	return &QR{Q: q, R: rr}
}
