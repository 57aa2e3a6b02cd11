package subspace

import (
	"fmt"
	"strings"
)

// GammaBackend names a γ backend a caller may request. There is one γ
// evaluator, the exact one: below grid.SparseThreshold buses it is dense
// modified Gram-Schmidt and the full principal-angle machinery, the
// historical bitwise float sequence; at or above it the rank-|S| update
// kernel (UpdateEvaluator) answers from the changed branches, with that
// same Gram-Schmidt as its fallback, under the 1e-9-agreement contract. The names below survive as aliases of it,
// because requests and scenario specs still carry them.
type GammaBackend int

const (
	// AutoGamma is the unset request.
	AutoGamma GammaBackend = iota
	// ExactGamma names the exact evaluator.
	ExactGamma
	// SparseGamma names the retired CSC-aware Gram-Schmidt.
	SparseGamma
	// SketchGamma names the retired sparse-Gram sketch.
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

// ParseGammaBackend parses a γ-backend name. The error for an unknown
// value lists every valid choice.
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
