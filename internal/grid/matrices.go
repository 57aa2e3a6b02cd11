package grid

import "gridmtd/internal/mat"

// BMatrix returns the N×N nodal susceptance matrix B = A·D·Aᵀ for the
// given reactance vector.
func (n *Network) BMatrix(x []float64) *mat.Dense {
	if len(x) != n.L() {
		panic("grid: reactance vector length mismatch")
	}
	b := mat.NewDense(n.N(), n.N())
	for l, br := range n.Branches {
		y := 1 / x[l]
		i, j := br.From-1, br.To-1
		b.Add(i, i, y)
		b.Add(j, j, y)
		b.Add(i, j, -y)
		b.Add(j, i, -y)
	}
	return b
}

// ReducedB returns B with the slack bus row and column removed; it is
// invertible for connected networks.
func (n *Network) ReducedB(x []float64) *mat.Dense {
	return n.ReducedBInto(x, mat.NewDense(n.N()-1, n.N()-1))
}

// ReducedBInto builds the slack-reduced susceptance matrix into the
// preallocated (N-1)×(N-1) matrix out and returns it. It accumulates the
// same per-branch additions as BMatrix (skipping the slack row/column), so
// the entries are bitwise identical to ReducedB while allocating nothing.
func (n *Network) ReducedBInto(x []float64, out *mat.Dense) *mat.Dense {
	if len(x) != n.L() {
		panic("grid: reactance vector length mismatch")
	}
	if out.Rows() != n.N()-1 || out.Cols() != n.N()-1 {
		panic("grid: reduced susceptance buffer has wrong shape")
	}
	out.Zero()
	for l, br := range n.Branches {
		y := 1 / x[l]
		i, j := br.From-1, br.To-1
		ri, rj := n.reducedCol(i), n.reducedCol(j)
		if ri >= 0 {
			out.Add(ri, ri, y)
		}
		if rj >= 0 {
			out.Add(rj, rj, y)
		}
		if ri >= 0 && rj >= 0 {
			out.Add(ri, rj, -y)
			out.Add(rj, ri, -y)
		}
	}
	return out
}

// MeasurementMatrix returns the slack-reduced measurement matrix
// H ∈ R^{M×(N-1)} that maps the non-slack voltage angles θ to the
// measurement vector z = [p; f; −f] (bus injections, forward branch flows,
// reverse branch flows), all in per-unit. Removing the slack column makes H
// full column rank for connected networks, matching the estimator's and
// the paper's full-rank assumption.
func (n *Network) MeasurementMatrix(x []float64) *mat.Dense {
	return n.MeasurementMatrixInto(x, mat.NewDense(n.M(), n.N()-1))
}

// reducedCol maps a 0-based bus index to its slack-reduced state column, or
// -1 for the slack bus.
func (n *Network) reducedCol(bus int) int {
	s := n.SlackBus - 1
	switch {
	case bus == s:
		return -1
	case bus < s:
		return bus
	default:
		return bus - 1
	}
}

// MeasurementMatrixInto builds H into the preallocated M×(N-1) matrix h and
// returns it. The injection block is accumulated branch by branch (the same
// per-branch additions BMatrix performs, in the same order), so the entries
// are bitwise identical to MeasurementMatrix while allocating nothing.
func (n *Network) MeasurementMatrixInto(x []float64, h *mat.Dense) *mat.Dense {
	if len(x) != n.L() {
		panic("grid: reactance vector length mismatch")
	}
	nb, nl := n.N(), n.L()
	if h.Rows() != nb+2*nl || h.Cols() != nb-1 {
		panic("grid: measurement matrix buffer has wrong shape")
	}
	h.Zero()
	for l, br := range n.Branches {
		y := 1 / x[l]
		i, j := br.From-1, br.To-1
		ci, cj := n.reducedCol(i), n.reducedCol(j)
		// Injection rows: p = B θ with B = A·D·Aᵀ accumulated per branch.
		if ci >= 0 {
			h.Add(i, ci, y)
			h.Add(j, ci, -y)
		}
		if cj >= 0 {
			h.Add(j, cj, y)
			h.Add(i, cj, -y)
		}
		// Flow rows: f_l = (θ_from − θ_to)/x_l ; reverse flows are negated.
		if ci >= 0 {
			h.Set(nb+l, ci, y)
			h.Set(nb+nl+l, ci, -y)
		}
		if cj >= 0 {
			h.Set(nb+l, cj, -y)
			h.Set(nb+nl+l, cj, y)
		}
	}
	return h
}

// MeasurementMatrixTInto builds Hᵀ ((N-1)×M, one state per row) into the
// preallocated matrix ht and returns it. The transposed layout stores each
// column of H contiguously, which is what the subspace engine's
// Gram-Schmidt pass wants; entries equal MeasurementMatrix's bitwise.
func (n *Network) MeasurementMatrixTInto(x []float64, ht *mat.Dense) *mat.Dense {
	if len(x) != n.L() {
		panic("grid: reactance vector length mismatch")
	}
	nb, nl := n.N(), n.L()
	if ht.Rows() != nb-1 || ht.Cols() != nb+2*nl {
		panic("grid: transposed measurement matrix buffer has wrong shape")
	}
	ht.Zero()
	for l, br := range n.Branches {
		y := 1 / x[l]
		i, j := br.From-1, br.To-1
		ci, cj := n.reducedCol(i), n.reducedCol(j)
		if ci >= 0 {
			ht.Add(ci, i, y)
			ht.Add(ci, j, -y)
		}
		if cj >= 0 {
			ht.Add(cj, j, y)
			ht.Add(cj, i, -y)
		}
		if ci >= 0 {
			ht.Set(ci, nb+l, y)
			ht.Set(ci, nb+nl+l, -y)
		}
		if cj >= 0 {
			ht.Set(cj, nb+l, -y)
			ht.Set(cj, nb+nl+l, y)
		}
	}
	return ht
}

// PTDF returns the L×(N-1) power transfer distribution factor matrix
// D·Arᵀ·Br⁻¹ mapping net injections at non-slack buses (per-unit) to branch
// flows (per-unit), where Ar is the incidence matrix without the slack row
// and Br the reduced susceptance matrix. The factorization backend is
// picked by size (see NewBFactorizer); on the dense path the result is
// bitwise identical to the historical inverse-then-multiply construction.
func (n *Network) PTDF(x []float64) (*mat.Dense, error) {
	if len(x) != n.L() {
		panic("grid: reactance vector length mismatch")
	}
	f := NewBFactorizer(n)
	if err := f.Reset(x); err != nil {
		return nil, err
	}
	out := mat.NewDense(n.L(), n.N()-1)
	if err := f.PTDFInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceVec removes the slack-bus entry from a length-N bus vector,
// returning the length-(N-1) reduced vector used with ReducedB and PTDF.
func (n *Network) ReduceVec(v []float64) []float64 {
	if len(v) != n.N() {
		panic("grid: bus vector length mismatch")
	}
	out := make([]float64, 0, n.N()-1)
	for i, x := range v {
		if i == n.SlackBus-1 {
			continue
		}
		out = append(out, x)
	}
	return out
}

// ExpandVec is the inverse of ReduceVec: it inserts value at the slack
// position of a reduced vector.
func (n *Network) ExpandVec(v []float64, slackValue float64) []float64 {
	if len(v) != n.N()-1 {
		panic("grid: reduced vector length mismatch")
	}
	out := make([]float64, 0, n.N())
	j := 0
	for i := 0; i < n.N(); i++ {
		if i == n.SlackBus-1 {
			out = append(out, slackValue)
			continue
		}
		out = append(out, v[j])
		j++
	}
	return out
}

// InjectionsMW returns the net bus injection vector (generation − load) in
// MW for a given dispatch (ordered as n.Gens).
func (n *Network) InjectionsMW(dispatchMW []float64) []float64 {
	if len(dispatchMW) != len(n.Gens) {
		panic("grid: dispatch vector length mismatch")
	}
	p := make([]float64, n.N())
	for i, b := range n.Buses {
		p[i] = -b.LoadMW
	}
	for i, g := range n.Gens {
		p[g.Bus-1] += dispatchMW[i]
	}
	return p
}
