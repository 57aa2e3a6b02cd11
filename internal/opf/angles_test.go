package opf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/mat"
)

func TestAnglesMatchesPTDFOn4Bus(t *testing.T) {
	n := grid.Case4GS()
	a, err := solveDispatchAngles(n, n.Reactances())
	if err != nil {
		t.Fatal(err)
	}
	p, err := SolveDispatch(n, n.Reactances())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.CostPerHour-p.CostPerHour) > 1e-5 {
		t.Fatalf("angle cost %v != PTDF cost %v", a.CostPerHour, p.CostPerHour)
	}
	if !mat.VecEqual(a.DispatchMW, p.DispatchMW, 1e-4) {
		t.Fatalf("dispatch mismatch: %v vs %v", a.DispatchMW, p.DispatchMW)
	}
}

func TestAnglesMatchesPTDFOn14And30Bus(t *testing.T) {
	for _, n := range []*grid.Network{grid.CaseIEEE14(), grid.CaseIEEE30()} {
		a, err := solveDispatchAngles(n, n.Reactances())
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		p, err := SolveDispatch(n, n.Reactances())
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if math.Abs(a.CostPerHour-p.CostPerHour) > 1e-4*(1+p.CostPerHour) {
			t.Errorf("%s: angle cost %v != PTDF cost %v", n.Name, a.CostPerHour, p.CostPerHour)
		}
		// The angle solution must be physically consistent and feasible.
		for l, br := range n.Branches {
			if math.Abs(a.FlowsMW[l]) > br.LimitMW+1e-5 {
				t.Errorf("%s: branch %d flow %v exceeds %v", n.Name, l, a.FlowsMW[l], br.LimitMW)
			}
		}
		if math.Abs(mat.SumVec(a.DispatchMW)-n.TotalLoadMW()) > 1e-5 {
			t.Errorf("%s: dispatch does not balance load", n.Name)
		}
	}
}

func TestAnglesInfeasible(t *testing.T) {
	n := grid.Case4GS()
	n.ScaleLoads(2)
	if _, err := solveDispatchAngles(n, n.Reactances()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestAnglesNoGenerators(t *testing.T) {
	n := grid.Case4GS()
	n.Gens = nil
	if _, err := solveDispatchAngles(n, n.Reactances()); err == nil {
		t.Fatal("expected error")
	}
}

// Property: the two LP formulations agree at random D-FACTS settings and
// load scalings (the formulations are algebraically equivalent).
func TestQuickFormulationEquivalence(t *testing.T) {
	base := grid.CaseIEEE14()
	lo, hi := base.DFACTSBounds()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := base.Clone()
		n.ScaleLoads(0.6 + 0.5*rng.Float64())
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		x := n.ExpandDFACTS(xd)
		a, errA := solveDispatchAngles(n, x)
		p, errP := SolveDispatch(n, x)
		if errA != nil || errP != nil {
			// Both must agree on infeasibility too.
			return errors.Is(errA, ErrInfeasible) == errors.Is(errP, ErrInfeasible)
		}
		return math.Abs(a.CostPerHour-p.CostPerHour) < 1e-4*(1+p.CostPerHour)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// solveDispatchAngles solves the same dispatch-only DC OPF as
// SolveDispatch but in the paper's original variables (g, θ):
//
//	min  Σ c_i g_i
//	s.t. g − l = B·θ           (nodal balance, equation (1b))
//	     |D·Aᵀ·θ| <= fmax       (branch limits, (1c))
//	     gmin <= g <= gmax      ((1d))
//	     θ_slack = 0
//
// It is the tests' cross-check of the PTDF formulation: both must find the
// same optimal cost (they are the same LP after eliminating θ), but this
// variant carries N−1 extra free variables and N equality rows.
func solveDispatchAngles(n *grid.Network, x []float64) (*Result, error) {
	if len(n.Gens) == 0 {
		return nil, errors.New("opf: network has no generators")
	}
	nG := len(n.Gens)
	nb := n.N()
	nTheta := nb - 1 // reduced angles
	nv := nG + nTheta

	// Variable layout: [g_0..g_{nG-1}, θ_red...]. Angles are free; use wide
	// artificial bounds to keep the standard-form conversion compact.
	lower := make([]float64, nv)
	upper := make([]float64, nv)
	lo, hi := n.GenBounds()
	copy(lower, lo)
	copy(upper, hi)
	for j := nG; j < nv; j++ {
		lower[j] = math.Inf(-1)
		upper[j] = math.Inf(1)
	}

	c := make([]float64, nv)
	copy(c, n.GenCosts())

	// Equality rows: for each bus i, Σ_{g at i} g − Σ_j B_ij θ_j = l_i.
	// B in per-unit acting on θ gives per-unit injections; convert to MW.
	b := n.BMatrix(x)
	aeq := mat.NewDense(nb, nv)
	beq := make([]float64, nb)
	colOf := func(bus int) int { // reduced angle column for 0-based bus
		s := n.SlackBus - 1
		switch {
		case bus == s:
			return -1
		case bus < s:
			return nG + bus
		default:
			return nG + bus - 1
		}
	}
	for i := 0; i < nb; i++ {
		for gi, g := range n.Gens {
			if g.Bus-1 == i {
				aeq.Add(i, gi, 1)
			}
		}
		for j := 0; j < nb; j++ {
			if cj := colOf(j); cj >= 0 {
				aeq.Add(i, cj, -b.At(i, j)*n.BaseMVA)
			}
		}
		beq[i] = n.Buses[i].LoadMW
	}

	// Inequality rows: ±flow_l = ±(θ_from − θ_to)/x_l · base <= fmax_l.
	var rows []int
	for l, br := range n.Branches {
		if !math.IsInf(br.LimitMW, 1) {
			rows = append(rows, l)
		}
	}
	var aub *mat.Dense
	var bub []float64
	if len(rows) > 0 {
		aub = mat.NewDense(2*len(rows), nv)
		bub = make([]float64, 2*len(rows))
		for k, l := range rows {
			br := n.Branches[l]
			coef := n.BaseMVA / x[l]
			if cj := colOf(br.From - 1); cj >= 0 {
				aub.Add(k, cj, coef)
				aub.Add(len(rows)+k, cj, -coef)
			}
			if cj := colOf(br.To - 1); cj >= 0 {
				aub.Add(k, cj, -coef)
				aub.Add(len(rows)+k, cj, coef)
			}
			bub[k] = br.LimitMW
			bub[len(rows)+k] = br.LimitMW
		}
	}

	sol, err := lp.Solve(&lp.Problem{
		C: c, Aeq: aeq, Beq: beq, Aub: aub, Bub: bub,
		Lower: lower, Upper: upper,
	})
	if err != nil {
		if errors.Is(err, lp.ErrInfeasible) {
			return nil, ErrInfeasible
		}
		return nil, fmt.Errorf("opf: angle formulation: %w", err)
	}

	dispatch := sol.X[:nG]
	thetaRed := sol.X[nG:]
	theta := n.ExpandVec(thetaRed, 0)
	flows := make([]float64, n.L())
	for l, br := range n.Branches {
		flows[l] = (theta[br.From-1] - theta[br.To-1]) / x[l] * n.BaseMVA
	}
	return &Result{
		DispatchMW:  mat.CopyVec(dispatch),
		FlowsMW:     flows,
		ThetaRad:    theta,
		CostPerHour: sol.Objective,
		Reactances:  mat.CopyVec(x),
	}, nil
}
