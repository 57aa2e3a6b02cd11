package core

import (
	"sync"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/subspace"
)

// GammaBackend names a γ backend a caller may request (re-exported from
// the subspace layer so the scenario/planner layers and the facade never
// import subspace directly). There is one γ path, the exact evaluator;
// every name is an alias of it, kept because requests and scenario specs
// still carry it.
type GammaBackend = subspace.GammaBackend

// γ-backend names, all served by the exact evaluator.
const (
	AutoGamma   = subspace.AutoGamma
	ExactGamma  = subspace.ExactGamma
	SparseGamma = subspace.SparseGamma
	SketchGamma = subspace.SketchGamma
)

// GammaEvaluator evaluates γ(H(x_old), H(x')) for many candidates x'
// against a fixed pre-perturbation configuration x_old. It prepares the
// x_old side exactly once at construction and keeps per-goroutine
// workspaces in a pool, so each evaluation performs only the
// candidate-side work and allocates nothing in steady state.
//
// A GammaEvaluator is safe for concurrent use; the parallel multi-start
// search shares one evaluator across all workers.
//
// Below grid.SparseThreshold buses, or when the resolved grid backend is
// dense (-backend dense), it runs the reference principal-angle pipeline
// and every float operation matches the uncached subspace.Gamma bitwise.
// At or above the threshold it answers from the rank-|S| update kernel
// (subspace.UpdateEvaluator): a candidate that changes s branches (the
// D-FACTS lines) is a rank-s update of H(x_old), and tan²γ is the largest
// eigenvalue of an s×s problem built from the cached x_old basis, so no
// candidate basis is formed. It agrees with the reference within 1e-9.
// When the kernel declines (more changed branches than it is cheaper for,
// or an ill-conditioned s×s system near γ = π/2) the evaluation falls
// back to the fast-kernel Gram-Schmidt on the reduced [p; √2·f] rows,
// under the same contract.
type GammaEvaluator struct {
	n    *grid.Network
	fast bool // large-case kernel family (the grid-backend seam)
	qOld *subspace.Basis
	// update is the rank-|S| kernel: set on the fast family when H(x_old)
	// has full column rank.
	update *subspace.UpdateEvaluator
	pool   sync.Pool // *gammaWorkspace
}

type gammaWorkspace struct {
	ht    *mat.Dense // candidate Hᵀ, allocated on first Gram-Schmidt use
	ws    subspace.Workspace
	xFull []float64 // expanded reactance buffer, length L
	d     []float64 // candidate diagonal 1/x_l, length L
	upd   subspace.UpdateWorkspace
}

// NewGammaEvaluator builds an evaluator for the pre-perturbation reactance
// vector xOld (full length-L vector).
func NewGammaEvaluator(n *grid.Network, xOld []float64) *GammaEvaluator {
	// The kernel family follows the resolved grid backend (including the
	// -backend process default), so a dense-forced run is the historical
	// bitwise path end to end and a sparse-forced run gets the whole fast
	// family — γ and LP always sit on the same side of the contract.
	fast := grid.EffectiveBackend(n, grid.AutoBackend) == grid.SparseBackend
	e := &GammaEvaluator{n: n, fast: fast}
	if fast {
		// The fast path works in the reduced γ-equivalent representation
		// (flow block once, √2-weighted): identical angles from 38% fewer
		// reduction rows — see Network.MeasurementMatrixTGammaInto.
		ht := mat.NewDense(n.N()-1, n.GammaAmbient())
		n.MeasurementMatrixTGammaInto(xOld, ht)
		e.qOld = subspace.ComputeBasisTFast(ht, 0)
		// The update kernel folds H(x_old) = Q·R through R⁻¹, so it needs
		// full column rank; otherwise every evaluation takes the
		// Gram-Schmidt path.
		if e.qOld.Dim() == n.N()-1 {
			dOld := invInto(make([]float64, n.L()), xOld)
			if u, err := subspace.NewUpdateEvaluator(n.GammaColumnFactor(), dOld, e.qOld); err == nil {
				e.update = u
			}
		}
	} else {
		ht := mat.NewDense(n.N()-1, n.M())
		n.MeasurementMatrixTInto(xOld, ht)
		e.qOld = subspace.ComputeBasisT(ht, 0)
	}
	e.pool.New = func() any {
		return &gammaWorkspace{
			ws:    subspace.Workspace{Fast: fast},
			xFull: make([]float64, n.L()),
			d:     make([]float64, n.L()),
		}
	}
	return e
}

// NewGammaEvaluatorBackend is NewGammaEvaluator for callers that carry a
// γ-backend name: every name is an alias of the exact evaluator.
func NewGammaEvaluatorBackend(n *grid.Network, xOld []float64, _ GammaBackend) *GammaEvaluator {
	return NewGammaEvaluator(n, xOld)
}

// candidateT returns the workspace's candidate Hᵀ buffer, allocating it on
// first use: (N−1)×(N+L) for the reduced representation, (N−1)×M
// otherwise. Evaluations the update kernel answers never touch it.
func (e *GammaEvaluator) candidateT(w *gammaWorkspace) *mat.Dense {
	if w.ht == nil {
		cols := e.n.M()
		if e.fast {
			cols = e.n.GammaAmbient()
		}
		w.ht = mat.NewDense(e.n.N()-1, cols)
	}
	return w.ht
}

// invInto fills d with 1/x.
func invInto(d, x []float64) []float64 {
	for i, v := range x {
		d[i] = 1 / v
	}
	return d
}

// Gamma returns γ(H(x_old), H(x)) for a full reactance vector x.
func (e *GammaEvaluator) Gamma(x []float64) float64 {
	w := e.pool.Get().(*gammaWorkspace)
	g := e.gamma(w, x)
	e.pool.Put(w)
	return g
}

// GammaDFACTS returns γ(H(x_old), H(x')) where x' is the network's current
// reactance vector with the D-FACTS branches set to xd (ordered as
// DFACTSIndices). This is the inner-loop form used by the problem-(4)
// search.
func (e *GammaEvaluator) GammaDFACTS(xd []float64) float64 {
	w := e.pool.Get().(*gammaWorkspace)
	e.n.ExpandDFACTSInto(xd, w.xFull)
	g := e.gamma(w, w.xFull)
	e.pool.Put(w)
	return g
}

// GammaExact is Gamma, named for callers that stress the value is the
// exact evaluator's.
func (e *GammaEvaluator) GammaExact(x []float64) float64 { return e.Gamma(x) }

// GammaDFACTSExact is GammaDFACTS, named like GammaExact.
func (e *GammaEvaluator) GammaDFACTSExact(xd []float64) float64 { return e.GammaDFACTS(xd) }

// gamma is the candidate evaluation: the rank-|S| update kernel when the
// evaluator has one and it accepts the candidate, the Gram-Schmidt path
// otherwise.
func (e *GammaEvaluator) gamma(w *gammaWorkspace, x []float64) float64 {
	if e.update != nil {
		if g, ok := e.update.Gamma(&w.upd, invInto(w.d, x)); ok {
			return g
		}
	}
	return e.gramSchmidtGamma(w, x)
}

// gramSchmidtGamma is the reference candidate evaluation: dense MGS on the
// bitwise or fast kernel family per the grid seam. It is the bitwise
// tier's only path and the update kernel's fallback.
func (e *GammaEvaluator) gramSchmidtGamma(w *gammaWorkspace, x []float64) float64 {
	ht := e.candidateT(w)
	if e.fast {
		e.n.MeasurementMatrixTGammaInto(x, ht)
	} else {
		e.n.MeasurementMatrixTInto(x, ht)
	}
	qNew := w.ws.BasisT(ht, 0)
	return w.ws.GammaBases(e.qOld, qNew)
}

// residuals returns the update kernel's attack-residual operator for the
// candidate x (see subspace.ResidualMap), or nil when the evaluator has no
// kernel or the kernel declines the candidate.
func (e *GammaEvaluator) residuals(x []float64) *subspace.ResidualMap {
	if e.update == nil {
		return nil
	}
	w := e.pool.Get().(*gammaWorkspace)
	defer e.pool.Put(w)
	m, ok := e.update.Residuals(&w.upd, invInto(w.d, x))
	if !ok {
		return nil
	}
	return m
}

// GammaSession is a single-goroutine view of a GammaEvaluator: it owns one
// workspace outright instead of borrowing from the pool per call, giving
// the parallel multi-start workers engine affinity without sync.Pool
// churn. Evaluation carries no cross-call state, so session results are
// identical to the pooled path. Not safe for concurrent use.
type GammaSession struct {
	e *GammaEvaluator
	w *gammaWorkspace
}

// NewSession returns a fresh session with its own workspace.
func (e *GammaEvaluator) NewSession() *GammaSession {
	return &GammaSession{e: e, w: e.pool.New().(*gammaWorkspace)}
}

// Gamma is GammaEvaluator.Gamma on the session's private workspace.
func (s *GammaSession) Gamma(x []float64) float64 { return s.e.gamma(s.w, x) }

// GammaDFACTS is GammaEvaluator.GammaDFACTS on the session's workspace.
func (s *GammaSession) GammaDFACTS(xd []float64) float64 {
	s.e.n.ExpandDFACTSInto(xd, s.w.xFull)
	return s.e.gamma(s.w, s.w.xFull)
}
