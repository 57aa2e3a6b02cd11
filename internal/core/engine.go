package core

import (
	"sync"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/subspace"
)

// GammaBackend selects the γ-evaluation strategy (re-exported from the
// subspace layer so the scenario/planner layers and the facade never
// import subspace directly): the exact reference evaluator, the CSC-aware
// sparse Gram-Schmidt, or the randomized sketch. See subspace.GammaBackend
// for the per-backend contracts.
type GammaBackend = subspace.GammaBackend

// γ-backend choices for NewGammaEvaluatorBackend and the -gamma flag.
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
// The candidate-side strategy is the pluggable γ-backend layer
// (subspace.GammaBackend, selected like grid.BFactorizer's seam):
//
//   - ExactGamma (the default). Below grid.SparseThreshold buses, or when
//     the resolved grid backend is dense (-backend dense), it runs the
//     reference principal-angle pipeline and every float operation
//     matches the uncached subspace.Gamma bitwise. At or above the
//     threshold it answers from the rank-|S| update kernel
//     (subspace.UpdateEvaluator): a candidate that changes s branches
//     (the D-FACTS lines) is a rank-s update of H(x_old), and tan²γ is
//     the largest eigenvalue of an s×s problem built from the cached
//     x_old basis, so no candidate basis is formed. It agrees with the
//     reference within 1e-9. When the kernel declines (more changed
//     branches than it is cheaper for, or an ill-conditioned s×s system
//     near γ = π/2) the evaluation falls back to the fast-kernel
//     Gram-Schmidt on the reduced [p; √2·f] rows, under the same
//     contract.
//   - SparseGamma: CSC-aware Gram-Schmidt over the reduced rows, skipping
//     structural zeros via topology-fixed column supports. 1e-9 agreement
//     with the exact evaluator.
//   - SketchGamma: the sparse-Gram Cholesky + seeded-Lanczos evaluator
//     (subspace.SketchEvaluator) — no dense basis is formed at all. It
//     carries the documented sketch error bound, is deterministic per
//     seed, and falls back to the exact path automatically whenever it
//     cannot certify the bound; SelectMTD/MaxGamma additionally re-check
//     the winning candidate exactly, so reported γ values stay exact.
type GammaEvaluator struct {
	n       *grid.Network
	backend GammaBackend // resolved: Exact, Sparse or Sketch
	fast    bool         // exact-path kernel family (the grid-backend seam)
	qOld    *subspace.Basis
	basisBk subspace.BasisBackend     // candidate orthonormalizer (exact/sparse)
	sketch  *subspace.SketchEvaluator // non-nil iff backend == SketchGamma
	// update is the exact path's rank-|S| kernel: set on the fast family
	// (exact and sketch backends) when H(x_old) has full column rank.
	update *subspace.UpdateEvaluator
	pool   sync.Pool // *gammaWorkspace
}

type gammaWorkspace struct {
	ht     *mat.Dense // candidate Hᵀ, allocated on first Gram-Schmidt use
	ws     subspace.Workspace
	xFull  []float64 // expanded reactance buffer, length L
	d      []float64 // candidate diagonal 1/x_l, length L
	upd    subspace.UpdateWorkspace
	sketch *subspace.SketchSession
}

// NewGammaEvaluator builds an evaluator for the pre-perturbation reactance
// vector xOld (full length-L vector) on the default γ backend (the -gamma
// process default; exact when none is set).
func NewGammaEvaluator(n *grid.Network, xOld []float64) *GammaEvaluator {
	return NewGammaEvaluatorBackend(n, xOld, AutoGamma)
}

// NewGammaEvaluatorBackend is NewGammaEvaluator with an explicit γ-backend
// choice. A sketch construction that cannot certify its contract (a
// rank-deficient x_old Gram matrix) degrades to the exact backend, so the
// returned evaluator is always usable; Backend() reports what actually
// serves.
func NewGammaEvaluatorBackend(n *grid.Network, xOld []float64, gb GammaBackend) *GammaEvaluator {
	gb = subspace.EffectiveGammaBackend(gb)
	// The exact path's kernel family follows the resolved grid backend
	// (including the -backend process default), so a dense-forced run is
	// the historical bitwise path end to end and a sparse-forced run gets
	// the whole fast family — γ and LP always sit on the same side of the
	// contract.
	fast := grid.EffectiveBackend(n, grid.AutoBackend) == grid.SparseBackend
	e := &GammaEvaluator{n: n, backend: gb, fast: fast}
	dOld := invInto(make([]float64, n.L()), xOld)

	switch gb {
	case SketchGamma:
		et, g := n.GammaSketchOperands()
		sk, err := subspace.NewSketchEvaluator(et, g, dOld, subspace.SketchConfig{Seed: 1})
		if err != nil {
			e.backend = ExactGamma
		} else {
			e.sketch = sk
		}
		// The exact side below doubles as the sketch's fallback (and the
		// SelectMTD/MaxGamma winner re-check), so it is always prepared.
	case SparseGamma:
		ht := mat.NewDense(n.N()-1, n.GammaAmbient())
		n.MeasurementMatrixTGammaInto(xOld, ht)
		e.basisBk = subspace.NewSparseBasisBackend(ht)
		var ws subspace.Workspace
		ws.Backend = e.basisBk
		e.qOld = ws.BasisT(ht, 0)
	}

	if e.qOld == nil {
		// Exact x_old basis (also the sketch fallback side).
		if fast {
			// The fast path works in the reduced γ-equivalent representation
			// (flow block once, √2-weighted): identical angles from 38% fewer
			// reduction rows — see Network.MeasurementMatrixTGammaInto.
			ht := mat.NewDense(n.N()-1, n.GammaAmbient())
			n.MeasurementMatrixTGammaInto(xOld, ht)
			e.qOld = subspace.ComputeBasisTFast(ht, 0)
			// The update kernel folds H(x_old) = Q·R through R⁻¹, so it
			// needs full column rank; otherwise every evaluation takes
			// the Gram-Schmidt path.
			if e.qOld.Dim() == n.N()-1 {
				if u, err := subspace.NewUpdateEvaluator(n.GammaColumnFactor(), dOld, e.qOld); err == nil {
					e.update = u
				}
			}
		} else {
			ht := mat.NewDense(n.N()-1, n.M())
			n.MeasurementMatrixTInto(xOld, ht)
			e.qOld = subspace.ComputeBasisT(ht, 0)
		}
	}

	e.pool.New = func() any {
		w := &gammaWorkspace{
			xFull: make([]float64, n.L()),
			d:     make([]float64, n.L()),
		}
		switch e.backend {
		case SparseGamma:
			w.ws.Backend = e.basisBk
		case SketchGamma:
			w.ws.Fast = e.fast
			w.sketch = e.sketch.NewSession()
		default:
			w.ws.Fast = e.fast
		}
		return w
	}
	return e
}

// Backend reports the resolved γ backend actually serving this evaluator.
func (e *GammaEvaluator) Backend() GammaBackend { return e.backend }

// exactReduced reports whether the exact path (primary or fallback) works
// in the reduced representation.
func (e *GammaEvaluator) exactReduced() bool { return e.fast }

// candidateT returns the workspace's candidate Hᵀ buffer, allocating it on
// first use: (N−1)×(N+L) for the reduced representation, (N−1)×M
// otherwise. Evaluations the update kernel answers never touch it.
func (e *GammaEvaluator) candidateT(w *gammaWorkspace) *mat.Dense {
	if w.ht == nil {
		cols := e.n.M()
		if e.exactReduced() || e.backend == SparseGamma {
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

// GammaExact returns γ through the exact path regardless of the
// evaluator's backend — the re-check SelectMTD/MaxGamma apply to a
// sketch-guided winner, and the reference the agreement tests compare
// against. For exact and sparse evaluators it is the regular evaluation
// (the sparse backend's 1e-9 contract needs no re-check).
func (e *GammaEvaluator) GammaExact(x []float64) float64 {
	w := e.pool.Get().(*gammaWorkspace)
	var g float64
	if e.backend == SketchGamma {
		g = e.exactGamma(w, x)
	} else {
		g = e.gamma(w, x)
	}
	e.pool.Put(w)
	return g
}

// GammaDFACTSExact is GammaExact in the D-FACTS-setting form.
func (e *GammaEvaluator) GammaDFACTSExact(xd []float64) float64 {
	w := e.pool.Get().(*gammaWorkspace)
	e.n.ExpandDFACTSInto(xd, w.xFull)
	var g float64
	if e.backend == SketchGamma {
		g = e.exactGamma(w, w.xFull)
	} else {
		g = e.gamma(w, w.xFull)
	}
	e.pool.Put(w)
	return g
}

func (e *GammaEvaluator) gamma(w *gammaWorkspace, x []float64) float64 {
	switch e.backend {
	case SketchGamma:
		if g, ok := w.sketch.Gamma(invInto(w.d, x)); ok {
			return g
		}
		return e.exactGamma(w, x) // automatic exact fallback
	case SparseGamma:
		ht := e.n.MeasurementMatrixTGammaInto(x, e.candidateT(w))
		qNew := w.ws.BasisT(ht, 0)
		return w.ws.GammaBases(e.qOld, qNew)
	default:
		return e.exactGamma(w, x)
	}
}

// exactGamma is the exact candidate evaluation: the rank-|S| update kernel
// when the evaluator has one and it accepts the candidate, the
// Gram-Schmidt path otherwise.
func (e *GammaEvaluator) exactGamma(w *gammaWorkspace, x []float64) float64 {
	if e.update != nil {
		if g, ok := e.update.Gamma(&w.upd, invInto(w.d, x)); ok {
			return g
		}
	}
	return e.gramSchmidtGamma(w, x)
}

// gramSchmidtGamma is the reference candidate evaluation (the
// pre-backend-layer path): dense MGS on the bitwise or fast kernel family
// per the grid seam. It is the bitwise tier's only path and the update
// kernel's fallback.
func (e *GammaEvaluator) gramSchmidtGamma(w *gammaWorkspace, x []float64) float64 {
	saved := w.ws.Backend
	w.ws.Backend = nil // exact path honors ws.Fast
	ht := e.candidateT(w)
	if e.exactReduced() {
		e.n.MeasurementMatrixTGammaInto(x, ht)
	} else {
		e.n.MeasurementMatrixTInto(x, ht)
	}
	qNew := w.ws.BasisT(ht, 0)
	g := w.ws.GammaBases(e.qOld, qNew)
	w.ws.Backend = saved
	return g
}

// GammaSession is a single-goroutine view of a GammaEvaluator: it owns one
// workspace outright instead of borrowing from the pool per call, giving
// the parallel multi-start workers engine affinity without sync.Pool
// churn. By default γ evaluation carries no cross-call state, so session
// results are identical to the pooled path; CarryWarmStarts opts a sketch
// session into Lanczos warm-start carrying, after which the caller must
// evaluate a deterministic candidate sequence and call ResetWarmStart at
// each sequence boundary (each local-search start) to keep seed determinism
// and worker-count invariance. Not safe for concurrent use.
type GammaSession struct {
	e *GammaEvaluator
	w *gammaWorkspace
}

// NewSession returns a fresh session with its own workspace.
func (e *GammaEvaluator) NewSession() *GammaSession {
	return &GammaSession{e: e, w: e.pool.New().(*gammaWorkspace)}
}

// CarryWarmStarts enables Lanczos warm-start carrying on a sketch-backend
// session (no-op on exact/sparse backends, whose evaluations have no
// iterative state to carry). See subspace.SketchSession.CarryWarmStarts for
// the determinism obligations.
func (s *GammaSession) CarryWarmStarts() {
	if s.w.sketch != nil {
		s.w.sketch.CarryWarmStarts()
	}
}

// ResetWarmStart discards any carried Lanczos warm start, so the session's
// next evaluation is identical to a fresh session's. No-op on exact/sparse
// backends.
func (s *GammaSession) ResetWarmStart() {
	if s.w.sketch != nil {
		s.w.sketch.ResetWarmStart()
	}
}

// Gamma is GammaEvaluator.Gamma on the session's private workspace.
func (s *GammaSession) Gamma(x []float64) float64 { return s.e.gamma(s.w, x) }

// GammaDFACTS is GammaEvaluator.GammaDFACTS on the session's workspace.
func (s *GammaSession) GammaDFACTS(xd []float64) float64 {
	s.e.n.ExpandDFACTSInto(xd, s.w.xFull)
	return s.e.gamma(s.w, s.w.xFull)
}
