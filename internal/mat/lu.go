package mat

import "math"

// LU holds an LU factorization with partial pivoting of a square matrix:
// P*A = L*U. It supports repeated solves against the same matrix.
type LU struct {
	lu  *Dense    // combined L (unit lower) and U factors
	piv []int     // row permutation
	tsc []float64 // transpose-solve scratch
}

// ComputeLU factors the square matrix a. It returns ErrSingular when a
// pivot is exactly zero (the matrix is singular to working precision).
func ComputeLU(a *Dense) (*LU, error) {
	f := &LU{}
	if err := f.Reset(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset refactors the receiver against a new matrix of the same (or a new)
// size, reusing the existing buffers when possible. It performs exactly the
// elimination ComputeLU performs, so the factors are bitwise identical; it
// exists so hot loops can refactor a matrix per iteration without
// allocating. On error the receiver must not be used for solves.
func (f *LU) Reset(a *Dense) error {
	if a.rows != a.cols {
		panic("mat: ComputeLU requires a square matrix")
	}
	n := a.rows
	var lu *Dense
	if f.lu != nil && f.lu.rows == n && f.lu.cols == n {
		lu = f.lu
		lu.CopyFrom(a)
	} else {
		lu = a.Clone()
	}
	var piv []int
	if cap(f.piv) >= n {
		piv = f.piv[:n]
	} else {
		piv = make([]int, n)
	}
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest entry in column k at/below row k.
		p := k
		maxAbs := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > maxAbs {
				maxAbs = a
				p = i
			}
		}
		if maxAbs == 0 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[k*n+j], lu.data[p*n+j] = lu.data[p*n+j], lu.data[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivVal
			lu.data[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= m * lu.data[k*n+j]
			}
		}
	}
	f.lu, f.piv = lu, piv
	return nil
}

// Solve returns x such that A*x = b for the factored matrix.
func (f *LU) Solve(b []float64) []float64 {
	return f.SolveInto(make([]float64, f.lu.rows), b)
}

// SolveInto writes the solution of A*x = b into dst and returns it. dst
// must not alias b. The substitutions are those of Solve, so the result is
// bitwise identical.
func (f *LU) SolveInto(dst, b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		panic(ErrShape)
	}
	x := dst
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu.data[i*n : i*n+i]
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.data[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / f.lu.data[i*n+i]
	}
	return x
}

// SolveTransposeInto writes the solution of Aᵀ*x = b into dst and returns
// it. dst must not alias b. With P*A = L*U the transposed system reads
// Uᵀ*(Lᵀ*(P*x)) = b, so it is a forward substitution with Uᵀ (lower
// triangular), a back substitution with the unit-diagonal Lᵀ, and the
// inverse row permutation.
func (f *LU) SolveTransposeInto(dst, b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		panic(ErrShape)
	}
	z := dst
	// Forward substitution with Uᵀ: U is the upper triangle of the packed
	// factor, so Uᵀ[i][j] = lu[j][i] for j <= i.
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= f.lu.data[j*n+i] * z[j]
		}
		z[i] = s / f.lu.data[i*n+i]
	}
	// Back substitution with Lᵀ (unit diagonal): L[i][j] for j < i sits
	// below the diagonal, so Lᵀ[i][j] = lu[j][i] for j > i.
	for i := n - 2; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s -= f.lu.data[j*n+i] * z[j]
		}
		z[i] += s
	}
	// x = Pᵀ*z: piv maps factored row i to original row piv[i], so
	// x[piv[i]] = z[i]. The scatter needs scratch because dst holds z.
	if cap(f.tsc) < n {
		f.tsc = make([]float64, n)
	}
	t := f.tsc[:n]
	copy(t, z)
	for i := 0; i < n; i++ {
		dst[f.piv[i]] = t[i]
	}
	return dst
}

// MinAbsPivot returns the smallest |U_kk| of the factorization (+Inf for
// a 0×0 matrix). Partial pivoting keeps every multiplier at most 1 in
// magnitude, so a pivot at rounding level against the matrix's largest
// entry means the matrix is singular in all but rounding.
func (f *LU) MinAbsPivot() float64 {
	n := f.lu.rows
	m := math.Inf(1)
	for i := 0; i < n; i++ {
		m = math.Min(m, math.Abs(f.lu.data[i*n+i]))
	}
	return m
}
