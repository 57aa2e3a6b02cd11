// Package se implements DC state estimation and the residual-based bad
// data detector (BDD) that the MTD defends: a weighted least squares
// estimator θ̂ = (HᵀWH)⁻¹HᵀWz, the residual r = ‖z − Hθ̂‖, a χ²-calibrated
// detection threshold for a target false-positive rate, and both analytic
// (noncentral χ²) and Monte-Carlo attack detection probabilities.
//
// The noise model is homoskedastic (W = σ⁻²I), as in the paper's
// simulations. Under that model the hat matrix Γ = H(HᵀH)⁻¹Hᵀ is the
// orthogonal projector onto Col(H), r² /σ² is central χ² with M−(N−1)
// degrees of freedom without attack, and noncentral χ² with noncentrality
// ‖(I−Γ)a‖²/σ² under attack a — exactly the facts used in the paper's
// Appendix B.
package se

import (
	"errors"
	"fmt"

	"gridmtd/internal/mat"
)

// Estimator performs least-squares DC state estimation for a fixed
// measurement matrix. Construct with NewEstimator; the QR factorization is
// cached so repeated estimates and residuals are cheap.
type Estimator struct {
	h  *mat.Dense // M×n measurement matrix (n = N-1 reduced states)
	q  *mat.Dense // thin Q factor (M×n), orthonormal columns
	qt *mat.Dense // Qᵀ (n×M), rows contiguous for the batch residual path
	r  *mat.Dense // R factor (n×n upper triangular)
	lu *mat.LU    // factorization of R for state recovery
}

// NewEstimator builds an estimator for measurement matrix h (M×n, M >= n,
// full column rank). It returns an error if h is rank deficient.
func NewEstimator(h *mat.Dense) (*Estimator, error) {
	if h.Rows() < h.Cols() {
		return nil, fmt.Errorf("se: measurement matrix is %dx%d; need at least as many measurements as states", h.Rows(), h.Cols())
	}
	qr := mat.ComputeQR(h)
	lu, err := mat.ComputeLU(qr.R)
	if err != nil {
		return nil, errors.New("se: measurement matrix is rank deficient; the state is unobservable")
	}
	qt := mat.TransposeInto(mat.NewDense(qr.Q.Cols(), qr.Q.Rows()), qr.Q)
	return &Estimator{h: h, q: qr.Q, qt: qt, r: qr.R, lu: lu}, nil
}

// NumMeasurements returns M.
func (e *Estimator) NumMeasurements() int { return e.h.Rows() }

// NumStates returns the reduced state dimension (N-1).
func (e *Estimator) NumStates() int { return e.h.Cols() }

// DOF returns the residual degrees of freedom M − (N−1).
func (e *Estimator) DOF() int { return e.h.Rows() - e.h.Cols() }

// ResidualVector returns z − Hθ̂ = (I − Γ)z without forming the projector.
func (e *Estimator) ResidualVector(z []float64) []float64 {
	if len(z) != e.h.Rows() {
		panic("se: measurement vector length mismatch")
	}
	qtz := mat.MulVecT(e.q, z)
	proj := mat.MulVec(e.q, qtz)
	return mat.SubVec(z, proj)
}

// Residual returns the BDD residual r = ‖z − Hθ̂‖₂.
func (e *Estimator) Residual(z []float64) float64 {
	return mat.Norm2(e.ResidualVector(z))
}

// ResidualWorkspace holds the scratch vectors of a residual evaluation so
// batch loops (the η′ sweep scores 1000 attacks per candidate) can reuse
// them instead of allocating three vectors per attack. The zero value is
// ready to use; a workspace is not safe for concurrent use — the parallel
// evaluation path keeps one per worker.
type ResidualWorkspace struct {
	qtz []float64
	res []float64
}

// ResidualWS returns the BDD residual ‖z − Hθ̂‖₂ using the workspace
// buffers. The operations match Residual exactly, so the value is bitwise
// identical.
func (e *Estimator) ResidualWS(ws *ResidualWorkspace, z []float64) float64 {
	m, n := e.h.Rows(), e.h.Cols()
	if len(z) != m {
		panic("se: measurement vector length mismatch")
	}
	if cap(ws.qtz) < n {
		ws.qtz = make([]float64, n)
	}
	if cap(ws.res) < m {
		ws.res = make([]float64, m)
	}
	// Qᵀz via contiguous rows of the cached transpose: each component is
	// the same ascending-index accumulation MulVecT performs, held in a
	// register instead of streamed through memory.
	qtz := ws.qtz[:n]
	for j := 0; j < n; j++ {
		qtz[j] = mat.Dot(e.qt.RowView(j), z)
	}
	proj := mat.MulVecInto(ws.res[:m], e.q, qtz)
	for i, v := range z {
		proj[i] = v - proj[i]
	}
	return mat.Norm2(proj)
}
