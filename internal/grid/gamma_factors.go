package grid

import (
	"math"

	"gridmtd/internal/mat"
)

// GammaIncidenceT returns Eᵀ ((N−1)×L, CSC), the right factor of the
// reduced representation B(x) = Ĉ·D(x)·E described at GammaColumnFactor:
// column l holds branch l's +1 at its from bus and −1 at its to bus, in
// slack-reduced bus order, skipping the slack.
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

// GammaColumnFactor returns the left factor Ĉ of the structural
// factorization the rank-|S| γ kernel works in. H's flow rows appear
// twice (z = [p; f; −f]), so for any two columns ⟨h_a, h_b⟩ =
// ⟨p_a, p_b⟩ + 2⟨f_a, f_b⟩: the reduced columns [p; √2·f] have H's inner
// products, and hence H's principal angles (γ). In that representation
// every reactance vector's column matrix factors as B(x) = Ĉ·D(x)·E with
//
//	Ĉ = [A; √2·I]  ((N+L)×L, A the full bus-branch incidence),
//	D(x) = diag(1/x_l),
//	E  = Ãᵀ        (L×(N−1), the slack-reduced incidence transpose,
//	               GammaIncidenceT's transpose).
//
// Column l of Ĉ holds branch l's +1 on its from bus, −1 on its to bus and
// √2 on its flow row N+l. Both factors depend only on the topology; one
// pair serves every reactance vector of the network. The kernel fits
// these columns by least squares on B(x_old).
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
