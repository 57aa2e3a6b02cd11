package core

import (
	"sync"
	"sync/atomic"

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
// (subspace.UpdateEvaluator): a candidate that changes s branches is a
// rank-s update of H(x_old), and tan²γ is the largest eigenvalue of an
// s×s problem built from three s×s Gram blocks of the changed lines. The
// x_old side is one sparse Cholesky of H(x_old)ᵀH(x_old) and the blocks
// over D ∪ F, formed by blocked solves: D is the D-FACTS set and F the
// lines off it where x_old differs from the network's own reactance.
// Every candidate ExpandDFACTS builds changes only lines in D ∪ F, so it
// only gathers sub-blocks; no basis of either side is formed. It agrees
// with the reference within 1e-9. When the kernel declines (an
// ill-conditioned s×s system near γ = π/2), or H(x_old) fails the
// factorization's rank test, the evaluation falls back to the reference
// Gram-Schmidt on the full H, under the same contract; only then is the
// x_old basis built, once.
type GammaEvaluator struct {
	n    *grid.Network
	xOld []float64
	// update is the rank-|S| kernel: set on the sparse tier when H(x_old)
	// passes the kernel's rank test.
	update    *subspace.UpdateEvaluator
	basisOnce sync.Once
	qOld      *subspace.Basis // the x_old basis, built by basis()
	pool      sync.Pool       // *gammaWorkspace
}

type gammaWorkspace struct {
	ht    *mat.Dense // candidate Hᵀ, allocated on first Gram-Schmidt use
	ws    subspace.Workspace
	xFull []float64 // expanded reactance buffer, length L
	d     []float64 // candidate diagonal 1/x_l, length L
	upd   subspace.UpdateWorkspace
}

// basisBuilds counts the x_old bases built process-wide (GammaBasisBuilds).
var basisBuilds atomic.Uint64

// GammaBasisBuilds returns how many x_old Gram-Schmidt bases GammaEvaluators
// have built in this process: one per evaluator on the bitwise tier, and
// on the sparse tier only when the update kernel is unavailable or
// declines a candidate.
func GammaBasisBuilds() uint64 { return basisBuilds.Load() }

// NewGammaEvaluator builds an evaluator for the pre-perturbation reactance
// vector xOld (full length-L vector).
func NewGammaEvaluator(n *grid.Network, xOld []float64) *GammaEvaluator {
	e := &GammaEvaluator{n: n, xOld: append([]float64(nil), xOld...)}
	// The kernel follows the resolved grid backend (including the
	// -backend process default), so a dense-forced run is the historical
	// bitwise path end to end — γ and LP always sit on the same side of
	// the contract.
	if grid.EffectiveBackend(n, grid.AutoBackend) == grid.SparseBackend {
		dOld := invInto(make([]float64, n.L()), xOld)
		if u, err := subspace.NewUpdateEvaluator(n.GammaColumnFactor(), n.GammaIncidenceT(), dOld, blockSet(n, xOld)); err == nil {
			e.update = u
		}
	}
	e.pool.New = func() any {
		return &gammaWorkspace{
			xFull: make([]float64, n.L()),
			d:     make([]float64, n.L()),
		}
	}
	return e
}

// blockSet returns D ∪ F, the lines whose kernel blocks the evaluator
// forms up front: the D-FACTS lines D, then the lines F off D where xOld
// differs from the network's own reactance. F is empty whenever xOld is a
// D-FACTS setting of the network (every problem-(1) solve), so the block
// set is then exactly D.
func blockSet(n *grid.Network, xOld []float64) []int {
	set := n.DFACTSIndices()
	for l, br := range n.Branches {
		if !br.HasDFACTS && xOld[l] != br.X {
			set = append(set, l)
		}
	}
	return set
}

// basis returns the x_old basis of the Gram-Schmidt path, building it on
// first use.
func (e *GammaEvaluator) basis() *subspace.Basis {
	e.basisOnce.Do(func() {
		basisBuilds.Add(1)
		ht := mat.NewDense(e.n.N()-1, e.n.M())
		e.n.MeasurementMatrixTInto(e.xOld, ht)
		e.qOld = subspace.ComputeBasisT(ht, 0)
	})
	return e.qOld
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

// gramSchmidtGamma is the reference candidate evaluation: dense MGS on
// the full H and the principal angles of the two bases. It is the bitwise
// tier's only path and the update kernel's fallback.
func (e *GammaEvaluator) gramSchmidtGamma(w *gammaWorkspace, x []float64) float64 {
	if w.ht == nil {
		w.ht = mat.NewDense(e.n.N()-1, e.n.M())
	}
	e.n.MeasurementMatrixTInto(x, w.ht)
	qNew := w.ws.BasisT(w.ht, 0)
	return w.ws.GammaBases(e.basis(), qNew)
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
