// Package subspace computes principal angles between the column spaces of
// matrices, following Björck & Golub: orthonormalize both column spaces and
// take the SVD of the cross-Gram matrix; the singular values are the
// cosines of the principal angles.
//
// The MTD literature (and the reproduced paper) writes "smallest principal
// angle" but operationally uses MATLAB's subspace(), which returns the
// LARGEST principal angle. With D-FACTS on a strict subset of branches the
// two column spaces always share a non-trivial subspace, so the smallest
// angle is identically zero and carries no information (see DESIGN.md).
// Both angles are exposed here; the MTD design criterion γ uses
// LargestAngle.
package subspace

import (
	"gridmtd/internal/mat"
)

// PrincipalAngles returns all principal angles (in radians, ascending)
// between the column spaces of a and b. The number of angles is the smaller
// of the two subspace dimensions (numerical ranks). An empty slice is
// returned if either matrix has rank zero.
//
// Cosines of the principal angles are the singular values of QaᵀQb. The
// computation is delegated to the Basis engine (see basis.go), which
// performs the identical orthonormalize-cross-SVD sequence with reusable
// buffers; callers evaluating many candidates against a fixed matrix
// should hold a Basis and Workspace directly.
func PrincipalAngles(a, b *mat.Dense) []float64 {
	qa := ComputeBasis(a, 0)
	qb := ComputeBasis(b, 0)
	var ws Workspace
	angles := ws.PrincipalAnglesBases(qa, qb)
	if len(angles) == 0 {
		return nil
	}
	out := make([]float64, len(angles))
	copy(out, angles)
	return out
}

// LargestAngle returns the largest principal angle between the column
// spaces of a and b. This is what MATLAB's subspace() computes and what the
// reproduced paper's γ(H, H') evaluates to in its experiments. Returns 0
// for empty subspaces.
func LargestAngle(a, b *mat.Dense) float64 {
	angles := PrincipalAngles(a, b)
	if len(angles) == 0 {
		return 0
	}
	return angles[len(angles)-1]
}

// Gamma is the separation measure γ(H, H') used by the MTD design
// criterion: the largest principal angle between Col(H) and Col(H').
func Gamma(h, hPrime *mat.Dense) float64 {
	return LargestAngle(h, hPrime)
}
