package opf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
)

// pricingAgreeCase drives two warm revised solvers — dual steepest-edge
// and Bland pricing — through the same perturbed-reactance dispatch-LP
// walk of a registered case, cross-checking both against a fresh flat
// tableau solve: 1e-9 objective agreement and identical feasibility
// verdicts regardless of the pivot order the pricing rule picks.
func pricingAgreeCase(t *testing.T, caseName string, count int, step float64) (seStats, blStats lp.RevisedStats) {
	t.Helper()
	n, err := grid.CaseByName(caseName)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	seW := eng.pool.New().(*dispatchWorkspace)
	blW := eng.pool.New().(*dispatchWorkspace)
	refW := eng.pool.New().(*dispatchWorkspace)
	seW.rsolver.SetPricing(lp.PriceSteepestEdge)
	blW.rsolver.SetPricing(lp.PriceBland)
	coldSolver := lp.NewSolver()

	rng := rand.New(rand.NewSource(17))
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.5 * (lo[i] + hi[i])
	}
	checked := 0
	for trial := 0; trial < count; trial++ {
		for i := range xd {
			xd[i] += step * (hi[i] - lo[i]) * (2*rng.Float64() - 1)
			if xd[i] < lo[i] {
				xd[i] = lo[i]
			}
			if xd[i] > hi[i] {
				xd[i] = hi[i]
			}
		}
		x := n.ExpandDFACTS(xd)
		solveWith := func(w *dispatchWorkspace) (float64, error) {
			prob, err := eng.buildProblem(w, x)
			if err != nil {
				t.Fatalf("trial %d: build: %v", trial, err)
			}
			sol, err := w.rsolver.Solve(prob, w.rsolver.CaptureBasis())
			if err != nil {
				return 0, err
			}
			return sol.Objective, nil
		}
		seObj, seErr := solveWith(seW)
		blObj, blErr := solveWith(blW)
		refProb, err := eng.buildProblem(refW, x)
		if err != nil {
			t.Fatalf("trial %d: build (ref): %v", trial, err)
		}
		refSol, refErr := coldSolver.Solve(refProb)
		if (seErr == nil) != (refErr == nil) || (blErr == nil) != (refErr == nil) {
			t.Fatalf("trial %d: verdicts disagree: se=%v bland=%v flat=%v", trial, seErr, blErr, refErr)
		}
		if refErr != nil {
			if !errors.Is(seErr, lp.ErrInfeasible) || !errors.Is(blErr, lp.ErrInfeasible) {
				t.Fatalf("trial %d: unexpected errors se=%v bland=%v", trial, seErr, blErr)
			}
			continue
		}
		checked++
		scale := 1 + math.Abs(refSol.Objective)
		if d := math.Abs(seObj - refSol.Objective); d > 1e-9*scale {
			t.Fatalf("trial %d: steepest-edge %.15g vs flat %.15g (diff %.3g)", trial, seObj, refSol.Objective, d)
		}
		if d := math.Abs(blObj - refSol.Objective); d > 1e-9*scale {
			t.Fatalf("trial %d: bland %.15g vs flat %.15g (diff %.3g)", trial, blObj, refSol.Objective, d)
		}
	}
	seStats, blStats = seW.rsolver.Stats(), blW.rsolver.Stats()
	if seStats.SEPivots == 0 {
		t.Fatalf("%s: steepest-edge pricing never engaged: %+v", caseName, seStats)
	}
	if blStats.SEPivots != 0 {
		t.Fatalf("%s: Bland solver recorded steepest-edge pivots: %+v", caseName, blStats)
	}
	t.Logf("%s: %d/%d feasible; SE %+v; Bland %+v", caseName, checked, count, seStats, blStats)
	return seStats, blStats
}

// TestPricingAgreeIEEE57 cross-checks 100 perturbed-reactance dispatch LPs
// on the 57-bus case under both pricing rules.
func TestPricingAgreeIEEE57(t *testing.T) {
	pricingAgreeCase(t, "ieee57", 100, 0.05)
}

// TestPricingAgreeIEEE118 cross-checks 100 perturbed-reactance dispatch
// LPs on the 118-bus case under both pricing rules (200 case LPs total
// with the 57-bus walk — the PR's pricing-agreement property budget).
func TestPricingAgreeIEEE118(t *testing.T) {
	if testing.Short() {
		t.Skip("100 cold 118-bus tableau solves take seconds")
	}
	pricingAgreeCase(t, "ieee118", 100, 0.05)
}

// TestPricingInfeasibleCertificateIEEE300 pins the Farkas trust rule under
// every pricing rule on real ieee300 candidates: the calibrated ratings
// make the low-reactance corner of the D-FACTS box operationally
// infeasible, and every pricing rule must return ErrInfeasible there — the
// certificate is only ever accepted on a fresh factorization, so a pivot
// order can delay the verdict but never change it — while agreeing to 1e-9
// on the feasible probes.
func TestPricingInfeasibleCertificateIEEE300(t *testing.T) {
	if testing.Short() {
		t.Skip("ieee300 dispatch probes take seconds")
	}
	n, err := grid.CaseByName("ieee300")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	ws := map[string]*dispatchWorkspace{
		"steepest-edge": eng.pool.New().(*dispatchWorkspace),
		"bland":         eng.pool.New().(*dispatchWorkspace),
	}
	ws["steepest-edge"].rsolver.SetPricing(lp.PriceSteepestEdge)
	ws["bland"].rsolver.SetPricing(lp.PriceBland)
	lo, hi := n.DFACTSBounds()
	point := func(f float64) []float64 {
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = lo[i] + f*(hi[i]-lo[i])
		}
		return n.ExpandDFACTS(xd)
	}
	verdict := func(w *dispatchWorkspace, x []float64) (float64, error) {
		prob, err := eng.buildProblem(w, x)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		sol, err := w.rsolver.Solve(prob, w.rsolver.CaptureBasis())
		if err != nil {
			return 0, err
		}
		return sol.Objective, nil
	}
	feasibleSeen, infeasibleSeen := 0, 0
	for _, f := range []float64{0.0, 0.2, 0.5, 0.75, 1.0} {
		x := point(f)
		seObj, seErr := verdict(ws["steepest-edge"], x)
		blObj, blErr := verdict(ws["bland"], x)
		if (seErr == nil) != (blErr == nil) {
			t.Fatalf("f=%g: verdicts disagree: se=%v bland=%v", f, seErr, blErr)
		}
		if seErr != nil {
			if !errors.Is(seErr, lp.ErrInfeasible) || !errors.Is(blErr, lp.ErrInfeasible) {
				t.Fatalf("f=%g: non-certificate errors: se=%v bland=%v", f, seErr, blErr)
			}
			infeasibleSeen++
			continue
		}
		feasibleSeen++
		scale := 1 + math.Abs(seObj)
		if d := math.Abs(blObj - seObj); d > 1e-9*scale {
			t.Fatalf("f=%g: bland %.15g vs steepest-edge %.15g", f, blObj, seObj)
		}
	}
	if infeasibleSeen == 0 || feasibleSeen == 0 {
		t.Fatalf("probe spread covered only one verdict (feasible=%d infeasible=%d)", feasibleSeen, infeasibleSeen)
	}
}
