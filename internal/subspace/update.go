package subspace

import (
	"errors"
	"math"

	"gridmtd/internal/mat"
)

// The update kernel computes the exact γ of a candidate that differs from
// the old configuration on few branches, without orthonormalizing the
// candidate. In the reduced representation (see grid.GammaSketchOperands)
//
//	B(x) = Ĉ·D(x)·E,   D(x) = diag(d),  d_l = 1/x_l,
//
// so a candidate that changes the branch set S (s = |S| branches) is a
// rank-s update of the old matrix:
//
//	B_new = B_old + Ĉ_S·Δ·E_S,   Δ = diag(d_new − d_old) on S.
//
// With B_old = Q·R (Q the cached k-column x_old basis), P = Q·Qᵀ, U = QᵀĈ
// and Y = E·R⁻¹, every candidate column splits into its component in
// Col(B_old), Q·(R + U_S·Δ·E_S)·v, and its orthogonal residual,
// (I − P)·Ĉ_S·Δ·E_S·v. The largest principal angle is the worst ratio of
// the two, and the Woodbury identity folds the k×k inverse into an s×s one:
//
//	tan²γ = λ_max(Zᵀ·K·Z),  Z = Δ·(I + Y_S·U_S·Δ)⁻¹·Y_S,
//	                        K = Ĉ_SᵀĈ_S − U_SᵀU_S = G_SS − U_SᵀU_S,
//
// which equals λ_max(Fᵀ·(Z·Zᵀ)·F) for any factor K = F·Fᵀ: every matrix
// the evaluation touches is s×s, plus the s² length-k dot products that
// form them. Y never needs R: Y·R = E because P leaves Col(B_old) fixed,
// so Y = D_old⁻¹·G⁻¹·Uᵀ with one sparse Cholesky of the well-conditioned
// G = ĈᵀĈ = AᵀA + 2I (forming the k×k normal matrix instead would square
// B_old's conditioning).
//
// Both s×s factors may be singular: K has a zero column when a changed
// branch is a bridge (its column of Ĉ lies in Col(B_old)), and Z·Zᵀ has
// rank < s when the changed branches close a cycle. The kernel therefore
// factors K by a pivoted, rank-revealing Cholesky and never needs a
// positive-definite factorization. The only matrix it inverts is
// T = I + Y_S·U_S·Δ, which is singular exactly when a candidate direction
// is orthogonal to Col(B_old) (γ = π/2) or B_new loses rank; an
// ill-conditioned T, or more changed branches than the kernel is cheaper
// for, reports ok=false and the caller runs the Gram-Schmidt evaluation.

// updateMaxCond bounds (1 + ‖Y_S·U_S·Δ‖₁)·‖T⁻¹‖₁, the factor by which
// T = I + Y_S·U_S·Δ amplifies the rounding of its own entries (T's own
// norm would miss cancellation: a 1×1 T of 1e-16 has condition number 1).
// Z carries a relative error of about that factor times ε, and γ moves by
// at most a quarter of the relative error of tan²γ, so 1e6 keeps the
// kernel two orders inside the 1e-9 agreement contract.
const updateMaxCond = 1e6

// updatePivotTol scales the largest diagonal entry of G_SS into the
// pivot threshold of K's rank-revealing Cholesky: K's entries cancel
// G_SS against U_SᵀU_S and carry an absolute error near √k·ε·max G_ll,
// so smaller pivots are rounding noise of an exactly singular direction.
const updatePivotTol = 1e-14

// UpdateEvaluator evaluates γ(old, candidate) by the rank-|S| update
// described above. It is immutable after construction and safe for
// concurrent use; per-goroutine scratch lives in UpdateWorkspace.
type UpdateEvaluator struct {
	k, l    int
	maxRank int // most changed branches it takes: k/2, past which its s³ work rivals a Gram-Schmidt
	dOld    []float64
	g       *mat.CSC
	ut      []float64 // L×k row-major: row l is Qᵀ·ĉ_l (column l of U)
	y       []float64 // L×k row-major: row l of Y = E·R⁻¹
}

// NewUpdateEvaluator prepares the update kernel for a fixed old side from
// the topology operand c = Ĉ ((N+L)×L, sparse columns), the old diagonal
// dOld (1/x_l) and qOld, an orthonormal basis of Col(Ĉ·D_old·E) with one
// vector per column of E (full column rank; callers check qOld.Dim()
// against E). It forms G = ĈᵀĈ, factors it once (sparse Cholesky) and
// solves for k right-hand sides in one block, keeping two L×k arrays, U
// and Y.
func NewUpdateEvaluator(c *mat.CSC, dOld []float64, qOld *Basis) (*UpdateEvaluator, error) {
	k, l := qOld.Dim(), c.Cols()
	if c.Rows() != qOld.Ambient() || len(dOld) != l {
		return nil, errors.New("subspace: update operand shapes disagree")
	}
	g := gramCSC(c)
	u := &UpdateEvaluator{
		k: k, l: l, maxRank: k / 2,
		dOld: append([]float64(nil), dOld...),
		g:    g,
		ut:   make([]float64, l*k),
		y:    make([]float64, l*k),
	}
	cp, ci, cv := c.ColPtr(), c.RowIdx(), c.Values()
	for i := 0; i < k; i++ {
		q := qOld.vec(i)
		for j := 0; j < l; j++ {
			var s float64
			for p := cp[j]; p < cp[j+1]; p++ {
				s += q[ci[p]] * cv[p]
			}
			u.ut[j*k+i] = s
		}
	}
	chol, err := mat.NewSparseChol(g)
	if err != nil {
		return nil, err
	}
	copy(u.y, u.ut)
	chol.SolveRowsInto(u.y, k, make([]float64, l*k))
	for j := 0; j < l; j++ {
		row := u.row(u.y, j)
		for i := range row {
			row[i] /= dOld[j]
		}
	}
	return u, nil
}

// gramCSC returns CᵀC for a sparse C, each column accumulated over the
// rows it touches (C's nonzeros regrouped by row).
func gramCSC(c *mat.CSC) *mat.CSC {
	nr, nc := c.Rows(), c.Cols()
	cp, ci, cv := c.ColPtr(), c.RowIdx(), c.Values()
	rp := make([]int, nr+1)
	for _, r := range ci {
		rp[r+1]++
	}
	for r := 0; r < nr; r++ {
		rp[r+1] += rp[r]
	}
	rc, rv := make([]int, len(ci)), make([]float64, len(ci))
	next := append([]int(nil), rp[:nr]...)
	for j := 0; j < nc; j++ {
		for p := cp[j]; p < cp[j+1]; p++ {
			r := ci[p]
			rc[next[r]], rv[next[r]] = j, cv[p]
			next[r]++
		}
	}
	var is, js, touched []int
	var vs []float64
	acc := make([]float64, nc)
	mark := make([]int, nc)
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < nc; j++ {
		touched = touched[:0]
		for p := cp[j]; p < cp[j+1]; p++ {
			r, v := ci[p], cv[p]
			for q := rp[r]; q < rp[r+1]; q++ {
				i := rc[q]
				if mark[i] != j {
					mark[i], acc[i] = j, 0
					touched = append(touched, i)
				}
				acc[i] += rv[q] * v
			}
		}
		for _, i := range touched {
			is, js, vs = append(is, i), append(js, j), append(vs, acc[i])
		}
	}
	return mat.NewCSCFromTriplets(nc, nc, is, js, vs)
}

// row returns row l of an L×k array.
func (u *UpdateEvaluator) row(a []float64, l int) []float64 { return a[l*u.k : (l+1)*u.k] }

// UpdateWorkspace is the per-goroutine scratch of UpdateEvaluator.Gamma
// and UpdateEvaluator.Residuals. The zero value is ready to use; buffers
// grow to the largest |S| seen.
type UpdateWorkspace struct {
	idx, perm                []int
	delta, col, unit         []float64 // length s
	t, tinv, gy, a, w, kk, m mat.Dense // s×s
	lu                       mat.LU
	diag, off, hv, hp        []float64 // tridiagonalization, length s
	maxG                     float64   // largest diagonal entry of G_SS
}

func (ws *UpdateWorkspace) grow(s int) {
	if cap(ws.col) >= s {
		return
	}
	ws.perm = make([]int, s)
	for _, p := range []*[]float64{&ws.col, &ws.unit, &ws.diag, &ws.off, &ws.hv, &ws.hp} {
		*p = make([]float64, s)
	}
}

// prepare collects the changed branches S of the candidate diagonal d
// into ws.idx/ws.delta and, when S is non-empty, forms the s×s blocks
// both evaluations share: ws.tinv = T⁻¹, ws.gy = Y_S·Y_Sᵀ and
// ws.kk = K = G_SS − U_SᵀU_S. ok=false means the kernel declines (more
// changed branches than it is cheaper for, or an ill-conditioned T).
func (u *UpdateEvaluator) prepare(ws *UpdateWorkspace, d []float64) (s int, ok bool) {
	if len(d) != u.l {
		panic("subspace: update diagonal length mismatch")
	}
	ws.idx, ws.delta = ws.idx[:0], ws.delta[:0]
	for l, v := range d {
		if v != u.dOld[l] {
			ws.idx = append(ws.idx, l)
			ws.delta = append(ws.delta, v-u.dOld[l])
		}
	}
	s = len(ws.idx)
	if s == 0 {
		return 0, true
	}
	if s > u.maxRank {
		return s, false
	}
	ws.grow(s)
	idx, delta := ws.idx, ws.delta
	t := ws.t.ReuseAs(s, s).RawData()
	gy := ws.gy.ReuseAs(s, s).RawData()
	kk := ws.kk.ReuseAs(s, s).RawData()
	gv := u.g.Values()
	var maxG float64
	for a, la := range idx {
		ya, ua := u.row(u.y, la), u.row(u.ut, la)
		for b, lb := range idx {
			t[a*s+b] = mat.DotFast(ya, u.row(u.ut, lb)) * delta[b]
		}
		for b, lb := range idx[:a+1] {
			gab := 0.0
			if p := u.g.Pos(la, lb); p >= 0 {
				gab = gv[p]
			}
			gy[a*s+b] = mat.DotFast(ya, u.row(u.y, lb))
			gy[b*s+a] = gy[a*s+b]
			kk[a*s+b] = gab - mat.DotFast(ua, u.row(u.ut, lb))
			kk[b*s+a] = kk[a*s+b]
		}
		maxG = math.Max(maxG, gv[u.g.Pos(la, la)])
	}
	ws.maxG = maxG

	// T = I + Y_S·U_S·Δ, accepted only when its inverse does not amplify
	// the rounding of its entries past updateMaxCond.
	mNorm := norm1(t, s)
	for a := 0; a < s; a++ {
		t[a*s+a]++
	}
	if ws.lu.Reset(&ws.t) != nil {
		return s, false
	}
	tinv := ws.tinv.ReuseAs(s, s).RawData()
	unit, col := ws.unit[:s], ws.col[:s]
	for j := 0; j < s; j++ {
		for i := range unit {
			unit[i] = 0
		}
		unit[j] = 1
		ws.lu.SolveInto(col, unit)
		for i, v := range col {
			tinv[i*s+j] = v
		}
	}
	return s, (1+mNorm)*norm1(tinv, s) <= updateMaxCond
}

// Gamma returns γ(old, candidate) for the candidate diagonal d (1/x_l).
// A candidate equal to the old side returns 0. ok=false means the kernel
// cannot certify the value (too many changed branches, or an
// ill-conditioned T near γ = π/2); the caller must evaluate through the
// Gram-Schmidt path instead.
func (u *UpdateEvaluator) Gamma(ws *UpdateWorkspace, d []float64) (gamma float64, ok bool) {
	s, ok := u.prepare(ws, d)
	if s == 0 || !ok {
		return 0, ok
	}
	delta, tinv, kk := ws.delta, ws.tinv.RawData(), ws.kk.RawData()

	// Z·Zᵀ = Δ·T⁻¹·(Y_S·Y_Sᵀ)·T⁻ᵀ·Δ, symmetrized across the two triangles.
	a1 := mat.MulInto(ws.a.ReuseAs(s, s), &ws.tinv, &ws.gy).RawData()
	w := ws.w.ReuseAs(s, s).RawData()
	for a := 0; a < s; a++ {
		for b := 0; b <= a; b++ {
			var x, y float64
			for c := 0; c < s; c++ {
				x += a1[a*s+c] * tinv[b*s+c]
				y += a1[b*s+c] * tinv[a*s+c]
			}
			v := 0.5 * (x + y) * delta[a] * delta[b]
			w[a*s+b], w[b*s+a] = v, v
		}
	}

	// K = F·Fᵀ by rank-revealing Cholesky, then tan²γ = λ_max(Fᵀ·W·F).
	perm := ws.perm[:s]
	r := pivotedCholesky(kk, perm, s, updatePivotTol*ws.maxG)
	if r == 0 {
		return 0, true
	}
	// a1 ← W·F (s×r, row stride s), where row perm[i] of F is row i of L.
	for a := 0; a < s; a++ {
		for j := 0; j < r; j++ {
			var x float64
			for i := j; i < s; i++ {
				x += w[a*s+perm[i]] * kk[i*s+j]
			}
			a1[a*s+j] = x
		}
	}
	m := ws.m.ReuseAs(r, r).RawData()
	var scale float64
	for i := 0; i < r; i++ {
		for j := 0; j <= i; j++ {
			var x float64
			for a := i; a < s; a++ {
				x += kk[a*s+i] * a1[perm[a]*s+j]
			}
			m[i*r+j], m[j*r+i] = x, x
		}
		scale = math.Max(scale, m[i*r+i])
	}
	if scale == 0 {
		return 0, true
	}
	for i := range m {
		m[i] /= scale
	}
	lam := maxEigSym(m, r, ws.diag[:r], ws.off[:r], ws.hv[:r], ws.hp[:r]) * scale
	if math.IsNaN(lam) || math.IsInf(lam, 0) {
		return 0, false
	}
	return math.Atan(math.Sqrt(lam)), true
}

// ResidualMap is the exact residual operator of one candidate: for a
// direction c of the old side, the component of B_old·c orthogonal to
// Col(B_new) has norm ‖P·b‖, where b = E_S·c holds the s angle
// differences of c across the changed branches. Because
// B_old·c = B_new·c − Ĉ_S·Δ·b, that component is the one of −Ĉ_S·Δ·b,
// and splitting Ĉ_S into its parts in and orthogonal to Col(B_old)
// reduces its squared norm to bᵀ·M·b with
//
//	M = (I + A·Y_S·Y_Sᵀ)⁻¹·A,  A = Nᵀ·K·N,  N = (I + Δ·Y_S·U_S)⁻¹·Δ = Δ·T⁻¹.
//
// With K = F·Fᵀ (the rank-revealing Cholesky Gamma uses) and Φ = Fᵀ·N,
// M = Φᵀ·(I + Φ·Y_S·Y_Sᵀ·Φᵀ)⁻¹·Φ, whose middle factor is symmetric with
// eigenvalues ≥ 1; P = L⁻¹·Φ for its Cholesky factor L. Nothing is
// subtracted, so ‖P·b‖ keeps its relative accuracy down to zero. A
// ResidualMap is immutable and safe for concurrent use.
type ResidualMap struct {
	branches []int     // S, ascending
	p        []float64 // r×s row-major
	r        int
}

// Branches returns the changed branches S in the order Norm expects b.
func (m *ResidualMap) Branches() []int { return m.branches }

// Norm returns ‖P·b‖ for the angle differences b (length |S|).
func (m *ResidualMap) Norm(b []float64) float64 {
	s := len(m.branches)
	var sq float64
	for i := 0; i < m.r; i++ {
		v := mat.Dot(m.p[i*s:(i+1)*s], b)
		sq += v * v
	}
	return math.Sqrt(sq)
}

// Residuals returns the residual operator of the candidate diagonal d
// (1/x_l), under the same decline rule as Gamma: ok=false means the caller
// must compute residuals another way. A candidate equal to the old side
// returns an operator with no branches, whose residuals are all zero.
func (u *UpdateEvaluator) Residuals(ws *UpdateWorkspace, d []float64) (*ResidualMap, bool) {
	s, ok := u.prepare(ws, d)
	if !ok {
		return nil, false
	}
	m := &ResidualMap{branches: append([]int(nil), ws.idx...)}
	if s == 0 {
		return m, true
	}
	delta, tinv, kk, gy := ws.delta, ws.tinv.RawData(), ws.kk.RawData(), ws.gy.RawData()
	perm := ws.perm[:s]
	r := pivotedCholesky(kk, perm, s, updatePivotTol*ws.maxG)
	if r == 0 {
		return m, true
	}
	// Φ = Fᵀ·Δ·T⁻¹ (r×s), where row perm[i] of F is row i of K's factor.
	phi := make([]float64, r*s)
	for j := 0; j < r; j++ {
		for b := 0; b < s; b++ {
			var x float64
			for i := j; i < s; i++ {
				x += kk[i*s+j] * delta[perm[i]] * tinv[perm[i]*s+b]
			}
			phi[j*s+b] = x
		}
	}
	// C = I + Φ·(Y_S·Y_Sᵀ)·Φᵀ, through X = Φ·Y_S·Y_Sᵀ (r×s), symmetrized.
	x := ws.a.ReuseAs(r, s).RawData()
	for j := 0; j < r; j++ {
		for b := 0; b < s; b++ {
			x[j*s+b] = mat.Dot(phi[j*s:(j+1)*s], gy[b*s:(b+1)*s])
		}
	}
	c := ws.m.ReuseAs(r, r).RawData()
	for i := 0; i < r; i++ {
		for j := 0; j <= i; j++ {
			v := 0.5 * (mat.Dot(x[i*s:(i+1)*s], phi[j*s:(j+1)*s]) + mat.Dot(x[j*s:(j+1)*s], phi[i*s:(i+1)*s]))
			if i == j {
				v++
			}
			c[i*r+j], c[j*r+i] = v, v
		}
	}
	// C = L·Lᵀ (C ⪰ I, so no pivot can vanish), then P = L⁻¹·Φ in place.
	for j := 0; j < r; j++ {
		for i := j; i < r; i++ {
			v := c[i*r+j]
			for k := 0; k < j; k++ {
				v -= c[i*r+k] * c[j*r+k]
			}
			if i == j {
				if !(v > 0) {
					return nil, false
				}
				v = math.Sqrt(v)
			} else {
				v /= c[j*r+j]
			}
			c[i*r+j] = v
		}
		row := phi[j*s : (j+1)*s]
		for k := 0; k < j; k++ {
			mat.AxpyVec(-c[j*r+k], phi[k*s:(k+1)*s], row)
		}
		for b := range row {
			row[b] /= c[j*r+j]
		}
	}
	m.p, m.r = phi, r
	return m, true
}

// norm1 is the maximum absolute column sum of the n×n row-major matrix a.
func norm1(a []float64, n int) float64 {
	var mx float64
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += math.Abs(a[i*n+j])
		}
		mx = math.Max(mx, s)
	}
	return mx
}

// pivotedCholesky factors the symmetric positive semidefinite n×n
// row-major matrix a in place as Pᵀ·L·Lᵀ·P, always pivoting on the largest
// remaining diagonal and stopping once it is ≤ tol. It returns the rank r:
// a[i*n+j] for j < r, i ≥ j then holds L, and perm[i] is the original
// index of pivoted row i.
func pivotedCholesky(a []float64, perm []int, n int, tol float64) int {
	for i := range perm {
		perm[i] = i
	}
	for j := 0; j < n; j++ {
		p := j
		for i := j + 1; i < n; i++ {
			if a[i*n+i] > a[p*n+p] {
				p = i
			}
		}
		if !(a[p*n+p] > tol) {
			return j
		}
		if p != j {
			perm[p], perm[j] = perm[j], perm[p]
			for c := 0; c < n; c++ {
				a[p*n+c], a[j*n+c] = a[j*n+c], a[p*n+c]
			}
			for i := 0; i < n; i++ {
				a[i*n+p], a[i*n+j] = a[i*n+j], a[i*n+p]
			}
		}
		ljj := math.Sqrt(a[j*n+j])
		a[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			a[i*n+j] /= ljj
		}
		for i := j + 1; i < n; i++ {
			for c := j + 1; c < n; c++ {
				a[i*n+c] -= a[i*n+j] * a[c*n+j]
			}
		}
	}
	return n
}

// maxEigSym returns the largest eigenvalue of the symmetric n×n row-major
// matrix a (destroyed): Householder reduction to tridiagonal form, then
// the Sturm bisection of tridiagMaxEig. diag, off, v and p are length-n
// scratch.
func maxEigSym(a []float64, n int, diag, off, v, p []float64) float64 {
	for j := 0; j+2 < n; j++ {
		diag[j] = a[j*n+j]
		var xx float64
		for i := j + 1; i < n; i++ {
			xx += a[i*n+j] * a[i*n+j]
		}
		if xx == 0 {
			off[j] = 0
			continue
		}
		x0 := a[(j+1)*n+j]
		alpha := -math.Copysign(math.Sqrt(xx), x0)
		off[j] = alpha
		// H = I − β·v·vᵀ maps a[j+1:, j] to alpha·e₁.
		for i := j + 1; i < n; i++ {
			v[i] = a[i*n+j]
		}
		v[j+1] -= alpha
		beta := 2 / (xx - x0*x0 + v[j+1]*v[j+1])
		var vp float64
		for i := j + 1; i < n; i++ {
			var x float64
			for c := j + 1; c < n; c++ {
				x += a[i*n+c] * v[c]
			}
			p[i] = beta * x
			vp += v[i] * p[i]
		}
		h := 0.5 * beta * vp
		for i := j + 1; i < n; i++ {
			p[i] -= h * v[i]
		}
		for i := j + 1; i < n; i++ {
			for c := j + 1; c < n; c++ {
				a[i*n+c] -= v[i]*p[c] + p[i]*v[c]
			}
		}
	}
	if n >= 2 {
		diag[n-2] = a[(n-2)*n+n-2]
		off[n-2] = a[(n-1)*n+n-2]
	}
	diag[n-1] = a[n*n-1]
	return tridiagMaxEig(diag, off[:n-1])
}

// tridiagMaxEig returns the largest eigenvalue of the symmetric
// tridiagonal matrix with diagonal d and off-diagonal e (len(e) =
// len(d)−1) by Sturm bisection — the same LDLᵀ sign-count recurrence the
// σ_min kernel uses, aimed at the other end of the spectrum.
func tridiagMaxEig(d, e []float64) float64 {
	n := len(d)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return d[0]
	}
	countBelow := func(t float64) int {
		cnt := 0
		q := 1.0
		for i := 0; i < n; i++ {
			var esq float64
			if i > 0 {
				esq = e[i-1] * e[i-1]
			}
			q = d[i] - t - esq/q
			if q < 0 {
				cnt++
			}
			if q == 0 {
				q = 1e-300
			}
		}
		return cnt
	}
	lo, hi := d[0], d[0]
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i < n-1 {
			r += math.Abs(e[i])
		}
		if d[i]-r < lo {
			lo = d[i] - r
		}
		if d[i]+r > hi {
			hi = d[i] + r
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-15*(1+math.Abs(hi)); iter++ {
		mid := 0.5 * (lo + hi)
		if countBelow(mid) >= n {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
