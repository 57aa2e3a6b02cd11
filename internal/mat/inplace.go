package mat

// In-place and workspace variants of the core operations. The hot loops of
// the MTD selection search evaluate thousands of candidates; these variants
// let callers preallocate every buffer once and reuse it per candidate,
// eliminating the per-evaluation heap traffic of the allocating API. Each
// function performs exactly the same floating-point operations in the same
// order as its allocating counterpart, so results are bitwise identical.

// Zero clears every entry of m.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// CopyFrom overwrites m with the entries of a. Shapes must match.
func (m *Dense) CopyFrom(a *Dense) {
	if m.rows != a.rows || m.cols != a.cols {
		panic(ErrShape)
	}
	copy(m.data, a.data)
}

// RowView returns row i of m as a slice sharing m's backing array. Writes
// through the slice mutate the matrix.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("mat: row index out of range")
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RawData returns the row-major backing slice of m. It is intended for
// tight loops that have already validated shapes.
func (m *Dense) RawData() []float64 { return m.data }

// ReuseAs reshapes m to r×c, zeroing the entries. The backing array is
// reused when it is large enough, so hot loops whose matrix dimensions
// drift (the revised-simplex working matrix grows and shrinks by one
// column per pivot) do not reallocate at every step.
func (m *Dense) ReuseAs(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	if cap(m.data) < r*c {
		m.data = make([]float64, r*c)
	} else {
		m.data = m.data[:r*c]
		for i := range m.data {
			m.data[i] = 0
		}
	}
	m.rows, m.cols = r, c
	return m
}

// MulInto computes a*b into dst and returns dst. dst must be a.Rows()×
// b.Cols() and must not alias a or b. The accumulation order matches Mul,
// so the result is bitwise identical.
func MulInto(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(ErrShape)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(ErrShape)
	}
	dst.Zero()
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// MulVecInto computes a*x into dst (length a.Rows()) and returns dst.
func MulVecInto(dst []float64, a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(ErrShape)
	}
	if len(dst) != a.rows {
		panic(ErrShape)
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// TransposeInto writes aᵀ into dst (which must be a.Cols()×a.Rows()) and
// returns dst.
func TransposeInto(dst, a *Dense) *Dense {
	if dst.rows != a.cols || dst.cols != a.rows {
		panic(ErrShape)
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			dst.data[j*dst.cols+i] = a.data[i*a.cols+j]
		}
	}
	return dst
}
