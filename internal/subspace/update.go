package subspace

import (
	"errors"
	"math"

	"gridmtd/internal/mat"
)

// The update kernel computes the exact γ of a candidate that differs from
// the old configuration on any set of branches, without orthonormalizing
// either side. In the reduced representation [p; √2·f] of H's columns, which
// has H's inner products and so H's principal angles (see
// grid.GammaColumnFactor),
//
//	B(x) = Ĉ·D(x)·E,   D(x) = diag(d),  d_l = 1/x_l,
//
// so a candidate that changes the branch set S (s = |S| branches) is a
// rank-s update of the old matrix:
//
//	B_new = B_old + Ĉ_S·Δ·E_S,   Δ = diag(d_new − d_old) on S.
//
// Let H = B_oldᵀB_old, P the orthogonal projector onto Col(B_old) and
// V_S = H⁻¹·B_oldᵀ·Ĉ_S the least-squares coefficients of Ĉ_S on B_old,
// with residuals R_S = Ĉ_S − B_old·V_S = (I − P)·Ĉ_S. Every candidate
// column B_new·v splits into its component in Col(B_old),
// B_old·(I + V_S·Δ·E_S)·v, and its orthogonal residual R_S·Δ·E_S·v. The
// largest principal angle is the worst ratio of the two, and the Woodbury
// identity folds the k×k inverse into an s×s one:
//
//	tan²γ = λ_max(Fᵀ·Δ·T⁻¹·W_SS·T⁻ᵀ·Δ·F),   T = I + N_SS·Δ,   K = F·Fᵀ,
//
// over three s×s Gram blocks of S:
//
//	N_SS = E_S·V_S = (E·H⁻¹·B_oldᵀ·Ĉ)_SS,
//	W_SS = (E·H⁻¹·Eᵀ)_SS,
//	K    = R_SᵀR_S = (Ĉᵀ·(I − P)·Ĉ)_SS.
//
// Forming them takes one sparse Cholesky of H and 2s solves in two
// blocks, W = H⁻¹·E_Sᵀ and V_S, where V_S gets one step of corrected
// semi-normal-equation refinement (CSNE, Björck): V_S += H⁻¹·B_oldᵀ·R_S,
// then R_S is recomputed. That gives V_S and R_S least-squares (QR-grade)
// accuracy although H squares B_old's conditioning, and K is a sum of
// squares of the residuals, so nothing cancels in it. The evaluator forms
// the blocks over a branch set once at construction (the caller's D ∪ F:
// every line a candidate is expected to change), and a candidate whose S
// lies inside it only gathers sub-blocks; any other S runs the same block
// routine on the fly, whatever its size. A column of a block solve never
// mixes with another column, so both routes give the same bits.
//
// Both s×s factors may be singular: K has a zero column when a changed
// branch is a bridge (its column of Ĉ lies in Col(B_old)), and W_SS has
// rank < s when the changed branches close a cycle. The kernel therefore
// factors K by a pivoted, rank-revealing Cholesky and never needs a
// positive-definite factorization. The only matrix it inverts is T, which
// is singular exactly when a candidate direction is orthogonal to
// Col(B_old) (γ = π/2) or B_new loses rank; an ill-conditioned T reports
// ok=false and the caller runs the Gram-Schmidt evaluation.

// updateMaxCond bounds (1 + ‖N_SS·Δ‖₁)·‖T⁻¹‖₁, the factor by which
// T = I + N_SS·Δ amplifies the rounding of its own entries (T's own norm
// would miss cancellation: a 1×1 T of 1e-16 has condition number 1).
// The evaluation carries a relative error of about that factor times ε,
// and γ moves by at most a quarter of the relative error of tan²γ, so 1e6
// keeps the kernel two orders inside the 1e-9 agreement contract.
const updateMaxCond = 1e6

// updatePivotTol scales the largest diagonal entry of G_SS = ‖ĉ_l‖² into
// the pivot threshold of K's rank-revealing Cholesky: a residual norm²
// below 1e-14·‖ĉ_l‖² is rounding noise of a column that lies in
// Col(B_old).
const updatePivotTol = 1e-14

// UpdateEvaluator evaluates γ(old, candidate) by the rank-|S| update
// described above. It is immutable after construction and safe for
// concurrent use; per-goroutine scratch lives in UpdateWorkspace.
type UpdateEvaluator struct {
	k, l   int
	dOld   []float64
	c, et  *mat.CSC        // Ĉ ((N+L)×L) and Eᵀ ((N−1)×L)
	cn2    []float64       // ‖ĉ_l‖², the diagonal of G = ĈᵀĈ
	b      *mat.CSC        // B_old = Ĉ·D_old·E
	h      *mat.SparseChol // H = B_oldᵀB_old
	dPos   []int           // branch → its index in the block set D, or −1
	nd     int             // |D|
	nD, wD []float64       // N_DD and W_DD, |D|×|D| row-major
	kD     []float64       // K over D
}

// NewUpdateEvaluator prepares the update kernel for a fixed old side from
// the topology operands c = Ĉ ((N+L)×L) and et = Eᵀ ((N−1)×L), the old
// diagonal dOld (1/x_l) and the branch set dSet whose blocks it forms up
// front (the lines candidates are expected to change). It factors
// H = B_oldᵀB_old by sparse Cholesky; an error means B_old fails the
// factorization's rank test (or dOld is not positive and finite) and the
// kernel is unavailable.
func NewUpdateEvaluator(c, et *mat.CSC, dOld []float64, dSet []int) (*UpdateEvaluator, error) {
	k, l := et.Rows(), c.Cols()
	if et.Cols() != l || len(dOld) != l {
		return nil, errors.New("subspace: update operand shapes disagree")
	}
	for _, v := range dOld {
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, errors.New("subspace: old admittances must be positive and finite")
		}
	}
	de := et.Transpose() // E, then D_old·E
	ri, rv := de.RowIdx(), de.Values()
	for p := range rv {
		rv[p] *= dOld[ri[p]]
	}
	b := mat.MulCSC(c, de)
	h, err := mat.NewSparseChol(mat.MulCSC(b.Transpose(), b))
	if err != nil {
		return nil, err
	}
	u := &UpdateEvaluator{
		k: k, l: l,
		dOld: append([]float64(nil), dOld...),
		c:    c, et: et, b: b,
		cn2:  make([]float64, l),
		h:    h,
		dPos: make([]int, l),
		nd:   len(dSet),
	}
	cp, cv := c.ColPtr(), c.Values()
	for j := range u.cn2 {
		for p := cp[j]; p < cp[j+1]; p++ {
			u.cn2[j] += cv[p] * cv[p]
		}
	}
	for i := range u.dPos {
		u.dPos[i] = -1
	}
	for i, la := range dSet {
		u.dPos[la] = i
	}
	nd := u.nd
	u.nD, u.wD, u.kD = make([]float64, nd*nd), make([]float64, nd*nd), make([]float64, nd*nd)
	var bs blockScratch
	u.blocks(&bs, dSet, u.nD, u.wD, u.kD)
	return u, nil
}

// blockScratch holds the row-major k×s and (N+L)×s arrays of one block
// evaluation; buffers grow to the largest s seen.
type blockScratch struct {
	w, v, dv, tmp, r []float64
	rt               []float64 // R_S column by column, s×(N+L)
}

// grown returns a zeroed length-n slice, reusing a's storage when it is
// large enough.
func grown(a []float64, n int) []float64 {
	if cap(a) < n {
		return make([]float64, n)
	}
	a = a[:n]
	for i := range a {
		a[i] = 0
	}
	return a
}

// blocks writes the s×s blocks N_SS, W_SS and K of the branch set idx
// (row-major) into nSS, wSS and kk. Every k×s array is row-major, so each
// step of a block solve, and each sparse product, is one contiguous axpy
// across the s right-hand sides.
func (u *UpdateEvaluator) blocks(bs *blockScratch, idx []int, nSS, wSS, kk []float64) {
	s, k, m := len(idx), u.k, u.c.Rows()
	if s == 0 {
		return
	}
	ep, ei, ev := u.et.ColPtr(), u.et.RowIdx(), u.et.Values()
	bs.tmp = grown(bs.tmp, k*s)

	// W = H⁻¹·E_Sᵀ, then W_SS = E_S·W.
	bs.w = grown(bs.w, k*s)
	for a, la := range idx {
		for p := ep[la]; p < ep[la+1]; p++ {
			bs.w[ei[p]*s+a] = ev[p]
		}
	}
	u.h.SolveRowsInto(bs.w, s, bs.tmp)
	u.rowsE(idx, bs.w, wSS)
	for a := 0; a < s; a++ {
		for b := 0; b < a; b++ {
			v := 0.5 * (wSS[a*s+b] + wSS[b*s+a])
			wSS[a*s+b], wSS[b*s+a] = v, v
		}
	}

	// V_S = H⁻¹·B_oldᵀ·Ĉ_S, one CSNE correction V_S += H⁻¹·B_oldᵀ·R_S, and
	// the residuals R_S = Ĉ_S − B_old·V_S.
	bs.r = grown(bs.r, m*s)
	u.scatterC(bs.r, idx)
	bs.v = grown(bs.v, k*s)
	u.mulBT(bs.v, bs.r, s)
	u.h.SolveRowsInto(bs.v, s, bs.tmp)
	u.residualsInto(grown(bs.r, m*s), idx, bs.v)
	bs.dv = grown(bs.dv, k*s)
	u.mulBT(bs.dv, bs.r, s)
	u.h.SolveRowsInto(bs.dv, s, bs.tmp)
	mat.AxpyFast(1, bs.dv, bs.v)
	u.residualsInto(grown(bs.r, m*s), idx, bs.v)
	u.rowsE(idx, bs.v, nSS)

	// K = R_SᵀR_S, one dot product per pair over R_S's columns.
	bs.rt = grown(bs.rt, m*s)
	for r := 0; r < m; r++ {
		for a, v := range bs.r[r*s : (r+1)*s] {
			bs.rt[a*m+r] = v
		}
	}
	for a := 0; a < s; a++ {
		ra := bs.rt[a*m : (a+1)*m]
		for b := 0; b <= a; b++ {
			kk[a*s+b] = mat.DotFast(ra, bs.rt[b*m:(b+1)*m])
			kk[b*s+a] = kk[a*s+b]
		}
	}
}

// rowsE writes E_S·X into dst (s×s row-major) for a k×s row-major X.
func (u *UpdateEvaluator) rowsE(idx []int, x, dst []float64) {
	s := len(idx)
	ep, ei, ev := u.et.ColPtr(), u.et.RowIdx(), u.et.Values()
	for a, la := range idx {
		row := dst[a*s : (a+1)*s]
		for i := range row {
			row[i] = 0
		}
		for p := ep[la]; p < ep[la+1]; p++ {
			mat.AxpyFast(ev[p], x[ei[p]*s:(ei[p]+1)*s], row)
		}
	}
}

// scatterC writes Ĉ_S into the zeroed (N+L)×s row-major r.
func (u *UpdateEvaluator) scatterC(r []float64, idx []int) {
	s := len(idx)
	cp, ci, cv := u.c.ColPtr(), u.c.RowIdx(), u.c.Values()
	for a, la := range idx {
		for p := cp[la]; p < cp[la+1]; p++ {
			r[ci[p]*s+a] = cv[p]
		}
	}
}

// mulBT writes B_oldᵀ·R into the zeroed k×s row-major dst for an
// (N+L)×s row-major R.
func (u *UpdateEvaluator) mulBT(dst, r []float64, s int) {
	bp, bi, bv := u.b.ColPtr(), u.b.RowIdx(), u.b.Values()
	for i := 0; i < u.k; i++ {
		row := dst[i*s : (i+1)*s]
		for p := bp[i]; p < bp[i+1]; p++ {
			mat.AxpyFast(bv[p], r[bi[p]*s:(bi[p]+1)*s], row)
		}
	}
}

// residualsInto writes R_S = Ĉ_S − B_old·V_S into the zeroed (N+L)×s
// row-major r.
func (u *UpdateEvaluator) residualsInto(r []float64, idx []int, v []float64) {
	s := len(idx)
	u.scatterC(r, idx)
	bp, bi, bv := u.b.ColPtr(), u.b.RowIdx(), u.b.Values()
	for i := 0; i < u.k; i++ {
		vi := v[i*s : (i+1)*s]
		for p := bp[i]; p < bp[i+1]; p++ {
			mat.AxpyFast(-bv[p], vi, r[bi[p]*s:(bi[p]+1)*s])
		}
	}
}

// UpdateWorkspace is the per-goroutine scratch of UpdateEvaluator.Gamma
// and UpdateEvaluator.Residuals. The zero value is ready to use; buffers
// grow to the largest |S| seen.
type UpdateWorkspace struct {
	idx, perm                []int
	delta, col, unit         []float64 // length s
	t, tinv, gy, a, w, kk, m mat.Dense // s×s
	lu                       mat.LU
	diag, off, hv, hp        []float64    // tridiagonalization, length s
	maxG                     float64      // largest diagonal entry of G_SS
	bs                       blockScratch // blocks of an S outside the block set
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
// both evaluations share: ws.tinv = T⁻¹, ws.gy = W_SS and ws.kk = K.
// S inside the block set D gathers them from the blocks formed at
// construction; any other S forms them on the fly. ok=false means the
// kernel declines (an ill-conditioned T).
func (u *UpdateEvaluator) prepare(ws *UpdateWorkspace, d []float64) (s int, ok bool) {
	if len(d) != u.l {
		panic("subspace: update diagonal length mismatch")
	}
	ws.idx, ws.delta = ws.idx[:0], ws.delta[:0]
	inD := true
	for l, v := range d {
		if v != u.dOld[l] {
			ws.idx = append(ws.idx, l)
			ws.delta = append(ws.delta, v-u.dOld[l])
			inD = inD && u.dPos[l] >= 0
		}
	}
	s = len(ws.idx)
	if s == 0 {
		return 0, true
	}
	ws.grow(s)
	idx, delta := ws.idx, ws.delta
	t := ws.t.ReuseAs(s, s).RawData()
	gy := ws.gy.ReuseAs(s, s).RawData()
	kk := ws.kk.ReuseAs(s, s).RawData()
	if inD {
		nd := u.nd
		for a, la := range idx {
			ia := u.dPos[la] * nd
			for b, lb := range idx {
				ib := u.dPos[lb]
				t[a*s+b], gy[a*s+b], kk[a*s+b] = u.nD[ia+ib], u.wD[ia+ib], u.kD[ia+ib]
			}
		}
	} else {
		u.blocks(&ws.bs, idx, t, gy, kk)
	}
	var maxG float64
	for a, la := range idx {
		for b := range idx {
			t[a*s+b] *= delta[b]
		}
		maxG = math.Max(maxG, u.cn2[la])
	}
	ws.maxG = maxG

	// T = I + N_SS·Δ, accepted only when its inverse does not amplify
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
// cannot certify the value (an ill-conditioned T near γ = π/2); the caller
// must evaluate through the Gram-Schmidt path instead.
func (u *UpdateEvaluator) Gamma(ws *UpdateWorkspace, d []float64) (gamma float64, ok bool) {
	s, ok := u.prepare(ws, d)
	if s == 0 || !ok {
		return 0, ok
	}
	delta, tinv, kk := ws.delta, ws.tinv.RawData(), ws.kk.RawData()

	// Δ·T⁻¹·W_SS·T⁻ᵀ·Δ, symmetrized across the two triangles.
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
//	M = (I + A·W_SS)⁻¹·A,  A = Ψᵀ·K·Ψ,  Ψ = (I + Δ·N_SS)⁻¹·Δ = Δ·T⁻¹.
//
// With K = F·Fᵀ (the rank-revealing Cholesky Gamma uses) and Φ = Fᵀ·Ψ,
// M = Φᵀ·(I + Φ·W_SS·Φᵀ)⁻¹·Φ, whose middle factor is symmetric with
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
	// C = I + Φ·W_SS·Φᵀ, through X = Φ·W_SS (r×s), symmetrized.
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
