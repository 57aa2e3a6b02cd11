// Package dcflow solves the DC power flow: given a network, a branch
// reactance vector and net bus injections, it computes the bus voltage
// angles and branch flows from B·θ = p. This is the physical substrate the
// state estimator, the OPF and the MTD experiments all run on.
package dcflow

import (
	"errors"
	"fmt"
	"math"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
)

// ErrUnbalanced is returned when generation does not match load: the DC
// model has no losses, so injections must sum to (numerically) zero.
var ErrUnbalanced = errors.New("dcflow: bus injections do not sum to zero")

// Result holds a solved DC power flow.
type Result struct {
	// ThetaRad are the bus voltage angles in radians (slack = 0), length N.
	ThetaRad []float64
	// FlowsMW are the branch flows in MW, positive in the From -> To
	// direction, length L.
	FlowsMW []float64
}

// Solve computes the DC power flow for the network with branch reactances x
// (per-unit) and net bus injections in MW (generation minus load, length N).
// Injections must balance to zero within tolerance.
func Solve(n *grid.Network, x []float64, injectionsMW []float64) (*Result, error) {
	if len(injectionsMW) != n.N() {
		return nil, fmt.Errorf("dcflow: injection vector has length %d, want %d", len(injectionsMW), n.N())
	}
	if len(x) != n.L() {
		return nil, fmt.Errorf("dcflow: reactance vector has length %d, want %d", len(x), n.L())
	}
	total := mat.SumVec(injectionsMW)
	if math.Abs(total) > 1e-6*(1+mat.Norm1(injectionsMW)) {
		return nil, fmt.Errorf("%w: imbalance %.6g MW", ErrUnbalanced, total)
	}

	// Per-unit injections at non-slack buses. The susceptance solve goes
	// through the size-picked factorization backend (dense LU below
	// grid.SparseThreshold buses, sparse Cholesky above); the dense path
	// performs the historical operations bitwise.
	pPU := mat.ScaleVec(1/n.BaseMVA, injectionsMW)
	pRed := n.ReduceVec(pPU)

	bf := grid.NewBFactorizer(n)
	if err := bf.Reset(x); err != nil {
		return nil, fmt.Errorf("dcflow: singular susceptance matrix: %w", err)
	}
	thetaRed := bf.SolveInto(make([]float64, n.N()-1), pRed)
	theta := n.ExpandVec(thetaRed, 0)

	flows := make([]float64, n.L())
	for l, br := range n.Branches {
		flows[l] = (theta[br.From-1] - theta[br.To-1]) / x[l] * n.BaseMVA
	}
	return &Result{ThetaRad: theta, FlowsMW: flows}, nil
}

// Violations returns the indices of branches whose |flow| exceeds the
// network limit by more than tolMW.
func Violations(n *grid.Network, flowsMW []float64, tolMW float64) []int {
	var out []int
	for l, br := range n.Branches {
		if math.Abs(flowsMW[l]) > br.LimitMW+tolMW {
			out = append(out, l)
		}
	}
	return out
}

// Measurements builds the noiseless measurement vector z = [p; f; −f] in
// per-unit from a solved flow and the injections that produced it.
func Measurements(n *grid.Network, injectionsMW []float64, res *Result) []float64 {
	z := make([]float64, 0, n.M())
	for _, p := range injectionsMW {
		z = append(z, p/n.BaseMVA)
	}
	for _, f := range res.FlowsMW {
		z = append(z, f/n.BaseMVA)
	}
	for _, f := range res.FlowsMW {
		z = append(z, -f/n.BaseMVA)
	}
	return z
}
