package opf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
)

// etaVsRefactorCase drives two warm RevisedSolvers through the same
// perturbed-reactance LP walk used by warmVsColdCase: one with product-form
// eta updates enabled (the default) and one with SetMaxUpdates(-1), which
// refactorizes the basis at every exchange — the pre-eta reference
// behaviour. Objectives must agree to 1e-9 on every feasible candidate, and
// the eta solver must actually have absorbed exchanges into updates.
func etaVsRefactorCase(t *testing.T, caseName string, count int, step float64) {
	t.Helper()
	n, err := grid.CaseByName(caseName)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	etaW := eng.pool.New().(*dispatchWorkspace)
	refW := eng.pool.New().(*dispatchWorkspace)
	refW.rsolver.SetMaxUpdates(-1)

	rng := rand.New(rand.NewSource(42))
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

		etaProb, err := eng.buildProblem(etaW, x)
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		etaSol, etaErr := etaW.rsolver.Solve(etaProb, etaW.rsolver.CaptureBasis())

		refProb, err := eng.buildProblem(refW, x)
		if err != nil {
			t.Fatalf("trial %d: build (ref): %v", trial, err)
		}
		refSol, refErr := refW.rsolver.Solve(refProb, refW.rsolver.CaptureBasis())

		if (etaErr == nil) != (refErr == nil) {
			t.Fatalf("trial %d: eta err %v, refactor err %v", trial, etaErr, refErr)
		}
		if refErr != nil {
			if !errors.Is(etaErr, lp.ErrInfeasible) || !errors.Is(refErr, lp.ErrInfeasible) {
				t.Fatalf("trial %d: unexpected errors eta=%v refactor=%v", trial, etaErr, refErr)
			}
			continue
		}
		checked++
		scale := 1 + math.Abs(refSol.Objective)
		if diff := math.Abs(etaSol.Objective - refSol.Objective); diff > 1e-9*scale {
			t.Fatalf("trial %d: eta objective %.15g vs refactor %.15g (diff %.3g)",
				trial, etaSol.Objective, refSol.Objective, diff)
		}
	}
	etaSt := etaW.rsolver.Stats()
	refSt := refW.rsolver.Stats()
	if etaSt.EtaUpdates == 0 {
		t.Fatalf("%s: eta solver never absorbed an exchange into an update: %+v", caseName, etaSt)
	}
	if refSt.EtaUpdates != 0 {
		t.Fatalf("%s: SetMaxUpdates(-1) solver still produced eta updates: %+v", caseName, refSt)
	}
	if etaSt.Refactorizations >= refSt.Refactorizations {
		t.Fatalf("%s: eta solver refactorized no less than the reference (%d vs %d)",
			caseName, etaSt.Refactorizations, refSt.Refactorizations)
	}
	t.Logf("%s: %d/%d feasible checked; eta %+v; refactor %+v", caseName, checked, count, etaSt, refSt)
}

// TestEtaVsRefactorizeIEEE57 pins 1e-9 agreement between the eta-update
// path and refactorize-every-exchange over the 200-LP perturbed-reactance
// corpus on the 57-bus case.
func TestEtaVsRefactorizeIEEE57(t *testing.T) {
	etaVsRefactorCase(t, "ieee57", 200, 0.05)
}

// TestEtaVsRefactorizeIEEE118 is the same property on the 118-bus case,
// where the working matrix is large enough for update drift to surface if
// the spike monitor or the exact re-derivation gates were wrong.
func TestEtaVsRefactorizeIEEE118(t *testing.T) {
	if testing.Short() {
		t.Skip("200 118-bus double solves take seconds")
	}
	etaVsRefactorCase(t, "ieee118", 200, 0.05)
}

// TestGlobalRevisedStatsAccumulates checks the process-wide counters move
// when solves happen — the production observability seam behind
// /v1/stats and mtdexp -v.
func TestGlobalRevisedStatsAccumulates(t *testing.T) {
	before := lp.GlobalRevisedStats()
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession()
	if _, err := sess.Cost(n.Reactances()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Cost(n.Reactances()); err != nil {
		t.Fatal(err)
	}
	after := lp.GlobalRevisedStats()
	if after.Solves-before.Solves < 2 {
		t.Fatalf("global Solves did not advance: before %+v after %+v", before, after)
	}
	if after.Refactorizations <= before.Refactorizations {
		t.Fatalf("global Refactorizations did not advance: before %+v after %+v", before, after)
	}
}
