package grid

import (
	"math"

	"gridmtd/internal/mat"
)

// GammaSketchOperands returns the topology-fixed operands of the
// structural factorization the rank-|S| γ kernel works in. In the reduced
// γ-equivalent representation (see MeasurementMatrixTGammaInto) every
// candidate column matrix factors as B(x) = Ĉ·D(x)·E with
//
//	Ĉ = [A; √2·I]  ((N+L)×L, A the full bus-branch incidence),
//	D(x) = diag(1/x_l),
//	E  = Ãᵀ        (L×(N−1), the slack-reduced incidence transpose),
//
// so B(x₁)ᵀB(x₂) = Eᵀ·D₁·G·D₂·E with the sparse Gram kernel
// G = ĈᵀĈ = AᵀA + 2I. The method returns Eᵀ in CSC form ((N−1)×L: column l
// holds branch l's ±1 reduced-incidence entries) and G (L×L). Both depend
// only on the topology; one pair serves every reactance vector of the
// network. The kernel itself takes Ĉ (GammaColumnFactor) and Eᵀ
// (GammaIncidenceT); these operands let the factorization be checked
// against the dense matrices.
func (n *Network) GammaSketchOperands() (et, g *mat.CSC) {
	nl := n.L()
	et = n.GammaIncidenceT()

	// G = AᵀA + 2I: (AᵀA)_{lm} sums a_bl·a_bm over the buses both branches
	// touch (full incidence, slack included), and the 2I is the √2-scaled
	// flow block's contribution.
	inc := make([][]int, n.N())      // incident branches per bus
	sign := make([][]float64, n.N()) // ±1 orientation per incidence
	for l, br := range n.Branches {
		inc[br.From-1] = append(inc[br.From-1], l)
		sign[br.From-1] = append(sign[br.From-1], 1)
		inc[br.To-1] = append(inc[br.To-1], l)
		sign[br.To-1] = append(sign[br.To-1], -1)
	}
	var gis, gjs []int
	var gvs []float64
	for b := range inc {
		for i, li := range inc[b] {
			for j, lj := range inc[b] {
				gis, gjs = append(gis, li), append(gjs, lj)
				gvs = append(gvs, sign[b][i]*sign[b][j])
			}
		}
	}
	sqrt2sq := math.Sqrt2 * math.Sqrt2 // the flow rows carry √2 exactly as built
	for l := 0; l < nl; l++ {
		gis, gjs = append(gis, l), append(gjs, l)
		gvs = append(gvs, sqrt2sq)
	}
	g = mat.NewCSCFromTriplets(nl, nl, gis, gjs, gvs)
	return et, g
}

// GammaIncidenceT returns Eᵀ ((N−1)×L, CSC), the right factor of the
// reduced representation B(x) = Ĉ·D(x)·E described at
// GammaSketchOperands: column l holds branch l's +1 at its from bus and
// −1 at its to bus, in slack-reduced bus order, skipping the slack.
func (n *Network) GammaIncidenceT() *mat.CSC {
	s := n.SlackBus - 1
	is := make([]int, 0, 2*n.L())
	js := make([]int, 0, 2*n.L())
	vs := make([]float64, 0, 2*n.L())
	for l, br := range n.Branches {
		if c := reducedColIndex(br.From-1, s); c >= 0 {
			is, js, vs = append(is, c), append(js, l), append(vs, 1)
		}
		if c := reducedColIndex(br.To-1, s); c >= 0 {
			is, js, vs = append(is, c), append(js, l), append(vs, -1)
		}
	}
	return mat.NewCSCFromTriplets(n.N()-1, n.L(), is, js, vs)
}

// GammaColumnFactor returns the left factor Ĉ = [A; √2·I] ((N+L)×L, CSC)
// of the reduced representation B(x) = Ĉ·D(x)·E described at
// GammaSketchOperands: column l holds branch l's +1 on its from bus, −1 on
// its to bus and √2 on its flow row N+l, in the row order of
// MeasurementMatrixTGammaInto. GammaSketchOperands' G is ĈᵀĈ. The rank-|S|
// γ update kernel fits these columns by least squares on H(x_old).
func (n *Network) GammaColumnFactor() *mat.CSC {
	nb, nl := n.N(), n.L()
	is := make([]int, 0, 3*nl)
	js := make([]int, 0, 3*nl)
	vs := make([]float64, 0, 3*nl)
	for l, br := range n.Branches {
		is = append(is, br.From-1, br.To-1, nb+l)
		js = append(js, l, l, l)
		vs = append(vs, 1, -1, math.Sqrt2)
	}
	return mat.NewCSCFromTriplets(nb+nl, nl, is, js, vs)
}

// BranchAngleDiffsInto writes θ_from − θ_to across each listed branch into
// dst (the rows E_l·θ of the reduced representation) and returns it, for a
// slack-reduced state vector θ whose slack angle is 0.
func (n *Network) BranchAngleDiffsInto(dst []float64, branches []int, theta []float64) []float64 {
	s := n.SlackBus - 1
	for i, l := range branches {
		var v float64
		if c := reducedColIndex(n.Branches[l].From-1, s); c >= 0 {
			v = theta[c]
		}
		if c := reducedColIndex(n.Branches[l].To-1, s); c >= 0 {
			v -= theta[c]
		}
		dst[i] = v
	}
	return dst
}
