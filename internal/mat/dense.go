// Package mat implements the linear algebra needed by the MTD
// reproduction: dense matrices, Householder QR, one-sided Jacobi SVD, LU
// solves, rank computation, vector helpers — and, for the ≥57-bus cases, a
// sparse backend (CSC storage, a fill-reducing minimum-degree ordering,
// and an up-looking sparse Cholesky with permuted triangular solves).
//
// The package is deliberately small and dependency-free. Dense matrices
// are row-major; the dense kernels favor simplicity and bitwise-stable
// operation order over blocked/SIMD performance because the experiment
// outputs are reproducibility contracts. The sparse kernels exist because
// the susceptance matrices of the larger IEEE cases are >97% zero: the
// grid package assembles B_r in CSC form once per topology, revalues it
// per reactance candidate, and SparseChol.Refactor + SolveInto replace the
// O(N³) dense inverse in the hot selection loops.
package mat

import (
	"errors"
	"fmt"
	"strings"
)

// ErrShape is returned when matrix dimensions are incompatible with the
// requested operation.
var ErrShape = errors.New("mat: dimension mismatch")

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// Dense is a dense row-major matrix of float64 values.
//
// The zero value is an empty (0×0) matrix. Use NewDense or NewDenseFrom to
// construct matrices with a shape.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero-initialized r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseFrom returns an r×c matrix backed by a copy of data, which must
// have length r*c and be laid out row-major.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d x %d", len(data), r, c))
	}
	d := make([]float64, len(data))
	copy(d, data)
	return &Dense{rows: r, cols: c, data: d}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d, %d) out of range for %d x %d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	return NewDenseFrom(m.rows, m.cols, m.data)
}

// SetCol copies v into column j. len(v) must equal Rows.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(ErrShape)
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVecT returns aᵀ*x without forming the transpose.
func MulVecT(a *Dense, x []float64) []float64 {
	if a.rows != len(x) {
		panic(ErrShape)
	}
	out := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			out[j] += v * xi
		}
	}
	return out
}

// Submatrix returns the block of m with rows [r0, r1) and columns [c0, c1).
func (m *Dense) Submatrix(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic("mat: submatrix bounds out of range")
	}
	out := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%10.5g", m.data[i*m.cols+j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
