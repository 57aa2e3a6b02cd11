package subspace

import (
	"fmt"
	"strings"
	"sync/atomic"

	"gridmtd/internal/mat"
)

// GammaBackend names a γ-evaluation strategy: how the orthonormal bases
// behind the principal-angle computation are produced (and, for the sketch
// backend, whether they are produced at all). It is the γ-side analogue of
// grid.Backend, selected through the same seam pattern.
type GammaBackend int

const (
	// AutoGamma resolves to the process-wide default (SetDefaultGammaBackend,
	// the cmds' -gamma flag) and to ExactGamma when none is set. The exact
	// backend is the only one whose outputs are pinned by the golden
	// reproducibility contracts, so auto never silently picks an
	// approximate evaluator.
	AutoGamma GammaBackend = iota
	// ExactGamma is the reference evaluator. Below grid.SparseThreshold
	// buses it is dense modified Gram-Schmidt and the full principal-angle
	// machinery, the historical bitwise float sequence. At or above it the
	// rank-|S| update kernel (UpdateEvaluator) answers from the changed
	// branches, with the multi-accumulator/blocked Gram-Schmidt as its
	// fallback, under the 1e-9-agreement contract.
	ExactGamma
	// SparseGamma is the CSC-aware Gram-Schmidt over the reduced [p; √2·f]
	// rows: structural zeros are skipped via per-column support lists, so
	// every projection touches only the union of the supports seen so far.
	// Values agree with ExactGamma to 1e-9 rad.
	SparseGamma
	// SketchGamma is the randomized sketch evaluator: orthonormalization
	// happens implicitly through sparse Cholesky factors of the candidate
	// Gram matrix Eᵀ·D·G·D·E, and sin²γ is extracted by a seeded Lanczos
	// iteration — no dense basis is ever formed. It carries a documented
	// relative-error contract, is deterministic per seed, and falls back to
	// the exact evaluator automatically when the sketched σ_min sits within
	// tolerance of the rank cutoff or the iteration fails to converge.
	SketchGamma
)

// String names the backend.
func (b GammaBackend) String() string {
	switch b {
	case ExactGamma:
		return "exact"
	case SparseGamma:
		return "sparse"
	case SketchGamma:
		return "sketch"
	default:
		return "auto"
	}
}

// GammaBackends lists the selectable γ backends with one-line descriptions,
// in flag-value order — the shared source for the cmds' "-gamma list"
// discoverability output.
func GammaBackends() []struct{ Name, Desc string } {
	return []struct{ Name, Desc string }{
		{"auto", "process default (-gamma flag), exact when none is set"},
		{"exact", "reference evaluator: bitwise below the sparse threshold, rank-|S| update above (1e-9)"},
		{"sparse", "CSC-aware Gram-Schmidt skipping structural zeros (1e-9 agreement)"},
		{"sketch", "sparse-Gram Cholesky + seeded randomized Lanczos; documented error bound, exact fallback"},
	}
}

// ParseGammaBackend parses a -gamma flag value. The error for an unknown
// value lists every valid choice (mirroring the case registry's "-case
// list" discoverability).
func ParseGammaBackend(s string) (GammaBackend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return AutoGamma, nil
	case "exact":
		return ExactGamma, nil
	case "sparse":
		return SparseGamma, nil
	case "sketch":
		return SketchGamma, nil
	default:
		return AutoGamma, fmt.Errorf("subspace: unknown gamma backend %q (want auto, exact, sparse or sketch)", s)
	}
}

// defaultGammaBackend is the process-wide AutoGamma override, settable from
// command-line flags so backend A/B runs need no code edits.
var defaultGammaBackend atomic.Int32

// SetDefaultGammaBackend overrides what AutoGamma resolves to for every γ
// engine constructed afterwards. AutoGamma restores the built-in rule
// (exact). Intended for process startup (the cmds' -gamma flag); engines
// snapshot their resolution at construction time.
func SetDefaultGammaBackend(b GammaBackend) { defaultGammaBackend.Store(int32(b)) }

// CurrentDefaultGammaBackend returns the active AutoGamma override
// (AutoGamma when none is set).
func CurrentDefaultGammaBackend() GammaBackend { return GammaBackend(defaultGammaBackend.Load()) }

// EffectiveGammaBackend resolves a possibly-Auto γ-backend choice: the
// process-wide default first, then ExactGamma. The result is always
// ExactGamma, SparseGamma or SketchGamma. Unlike grid.EffectiveBackend
// there is no size rule: the approximate backends are strictly opt-in, so
// default-path outputs stay pinned to the exact evaluator.
func EffectiveGammaBackend(b GammaBackend) GammaBackend {
	if b == AutoGamma {
		b = CurrentDefaultGammaBackend()
	}
	if b == AutoGamma {
		return ExactGamma
	}
	return b
}

// BasisBackend produces orthonormal bases for transposed candidate
// matrices — the seam the γ engines select an orthonormalization strategy
// through, mirroring grid.BFactorizer on the linear-algebra side. The two
// basis-producing implementations are ExactBasisBackend (dense MGS, both
// kernel families) and the support-tracking SparseBasisBackend; the sketch
// evaluator never forms a basis and therefore lives outside this interface
// (see SketchEvaluator).
//
// The interface is sealed (unexported methods): Workspace dispatch relies
// on implementation invariants — which kernel family the cross-Gram and
// σ_min stages must use, and whether produced bases carry support lists.
type BasisBackend interface {
	// Backend reports which γ backend this implementation serves.
	Backend() GammaBackend
	// basisT orthonormalizes the rows of at (columns of the candidate
	// matrix) into dst, reusing dst's buffers.
	basisT(dst *Basis, at *mat.Dense, tol float64)
	// fastKernels reports whether downstream stages (cross-Gram, σ_min)
	// should use the multi-accumulator/blocked kernel family.
	fastKernels() bool
}

// exactBasisBackend is today's dense modified Gram-Schmidt: the bitwise
// serial kernels or the multi-accumulator fast family, exactly as the
// pre-backend-layer Workspace.Fast toggle selected them.
type exactBasisBackend struct{ fast bool }

// ExactBasisBackend returns the reference dense-MGS backend; fast selects
// the multi-accumulator kernel family (the ≥ grid.SparseThreshold path).
func ExactBasisBackend(fast bool) BasisBackend { return exactBasisBackend{fast: fast} }

func (e exactBasisBackend) Backend() GammaBackend { return ExactGamma }

func (e exactBasisBackend) basisT(dst *Basis, at *mat.Dense, tol float64) {
	if e.fast {
		computeBasisTFast(dst, at, tol)
	} else {
		computeBasisT(dst, at, tol)
	}
}

func (e exactBasisBackend) fastKernels() bool { return e.fast }
