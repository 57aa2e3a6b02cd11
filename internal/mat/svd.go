package mat

import (
	"math"
	"sort"
)

// SVD holds a (thin) singular value decomposition A = U * diag(S) * Vᵀ,
// where A is m×n with m >= n, U is m×n with orthonormal columns, S holds
// the n singular values in descending order and V is n×n orthogonal.
type SVD struct {
	U *Dense
	S []float64
	V *Dense
}

// ComputeSVD computes the thin SVD of a (rows >= cols required) using
// one-sided Jacobi rotations. The method is slow relative to bidiagonal
// approaches but is simple, backward-stable and highly accurate, which is
// exactly the tradeoff wanted for the small matrices (≤ a few hundred rows)
// in this project.
func ComputeSVD(a *Dense) *SVD {
	m, n := a.rows, a.cols
	if m < n {
		panic("mat: ComputeSVD requires rows >= cols")
	}
	u := a.Clone()
	v := Identity(n)

	// One-sided Jacobi: repeatedly orthogonalize pairs of columns of U.
	const maxSweeps = 60
	eps := 1e-15
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2x2 Gram matrix entries for columns p, q.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					up := u.data[i*n+p]
					uq := u.data[i*n+q]
					app += up * up
					aqq += uq * uq
					apq += up * uq
				}
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) {
					continue
				}
				off += apq * apq
				// Jacobi rotation that annihilates apq.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					up := u.data[i*n+p]
					uq := u.data[i*n+q]
					u.data[i*n+p] = c*up - s*uq
					u.data[i*n+q] = s*up + c*uq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - s*vq
					v.data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if off == 0 {
			break
		}
	}

	// Column norms of U are the singular values.
	type colSV struct {
		sv  float64
		idx int
	}
	svs := make([]colSV, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < m; i++ {
			s += u.data[i*n+j] * u.data[i*n+j]
		}
		svs[j] = colSV{sv: math.Sqrt(s), idx: j}
	}
	sort.Slice(svs, func(i, j int) bool { return svs[i].sv > svs[j].sv })

	outU := NewDense(m, n)
	outV := NewDense(n, n)
	s := make([]float64, n)
	for jj, cs := range svs {
		s[jj] = cs.sv
		j := cs.idx
		if cs.sv > 0 {
			inv := 1 / cs.sv
			for i := 0; i < m; i++ {
				outU.data[i*n+jj] = u.data[i*n+j] * inv
			}
		}
		for i := 0; i < n; i++ {
			outV.data[i*n+jj] = v.data[i*n+j]
		}
	}
	return &SVD{U: outU, S: s, V: outV}
}

// SVDWorkspace holds the scratch buffers for repeated singular-value-only
// computations. The zero value is ready to use; buffers grow on demand and
// are reused across calls, so steady-state calls allocate nothing.
type SVDWorkspace struct {
	u     []float64
	sv    []float64
	norm2 []float64 // cached column squared norms
	nval  []bool    // norm2[j] matches the current column j
}

// SingularValues computes the singular values of a (rows >= cols required)
// in descending order, reusing the workspace buffers. It performs exactly
// the same Jacobi rotation sequence as ComputeSVD — the rotations applied
// to U fully determine the singular values, and the V accumulation and
// output assembly that ComputeSVD additionally performs do not affect them
// — so the returned values are bitwise identical to ComputeSVD(a).S. The
// returned slice is owned by the workspace and overwritten by the next
// call.
func (ws *SVDWorkspace) SingularValues(a *Dense) []float64 {
	m, n := a.rows, a.cols
	if m < n {
		panic("mat: SingularValues requires rows >= cols")
	}
	if n == 0 {
		return nil
	}
	// Work on Aᵀ so each column of A is a contiguous row: the Jacobi
	// rotations and Gram accumulations then stream through memory. Element
	// for element the arithmetic is exactly ComputeSVD's, so the values
	// are unchanged.
	if cap(ws.u) < m*n {
		ws.u = make([]float64, m*n)
	}
	ut := ws.u[:m*n]
	for i := 0; i < m; i++ {
		arow := a.data[i*n : (i+1)*n]
		for j, v := range arow {
			ut[j*m+i] = v
		}
	}

	if cap(ws.norm2) < n {
		ws.norm2 = make([]float64, n)
		ws.nval = make([]bool, n)
	}
	norm2 := ws.norm2[:n]
	nval := ws.nval[:n]
	for j := range nval {
		nval[j] = false
	}
	const maxSweeps = 60
	eps := 1e-15
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			colP := ut[p*m : (p+1)*m]
			for q := p + 1; q < n; q++ {
				colQ := ut[q*m : (q+1)*m]
				// Gram entries. Column squared norms are reused when the
				// column is untouched since they were last summed —
				// recomputing over identical data would reproduce the same
				// bits — and the common stale-stale case keeps the original
				// fused accumulation loop.
				var app, aqq, apq float64
				switch {
				case !nval[p] && !nval[q]:
					for i := 0; i < m; i++ {
						up := colP[i]
						uq := colQ[i]
						app += up * up
						aqq += uq * uq
						apq += up * uq
					}
					norm2[p], nval[p] = app, true
					norm2[q], nval[q] = aqq, true
				case nval[p] && nval[q]:
					app, aqq = norm2[p], norm2[q]
					for i := 0; i < m; i++ {
						apq += colP[i] * colQ[i]
					}
				case nval[p]:
					app = norm2[p]
					for i := 0; i < m; i++ {
						uq := colQ[i]
						aqq += uq * uq
						apq += colP[i] * uq
					}
					norm2[q], nval[q] = aqq, true
				default:
					aqq = norm2[q]
					for i := 0; i < m; i++ {
						up := colP[i]
						app += up * up
						apq += up * colQ[i]
					}
					norm2[p], nval[p] = app, true
				}
				// Convergence test |apq| <= eps*sqrt(app*aqq). The squared
				// comparison with a 4×/0.25× safety band decides all but
				// borderline cases without the square root; inside the band
				// (a few ulps wide) the exact historical test runs. Both
				// sides of the band provably agree with the exact test, so
				// the rotation sequence is unchanged.
				apq2 := apq * apq
				bound := eps * eps * (app * aqq)
				if apq2 <= 0.25*bound {
					continue
				}
				if apq2 <= 4*bound {
					if math.Abs(apq) <= eps*math.Sqrt(app*aqq) {
						continue
					}
				}
				nval[p] = false
				nval[q] = false
				off += apq * apq
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					up := colP[i]
					uq := colQ[i]
					colP[i] = c*up - s*uq
					colQ[i] = s*up + c*uq
				}
			}
		}
		if off == 0 {
			break
		}
	}

	if cap(ws.sv) < n {
		ws.sv = make([]float64, n)
	}
	sv := ws.sv[:n]
	for j := 0; j < n; j++ {
		col := ut[j*m : (j+1)*m]
		var s float64
		for _, v := range col {
			s += v * v
		}
		sv[j] = math.Sqrt(s)
	}
	// Descending order, as ComputeSVD reports.
	sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
	return sv
}
