package core

import (
	"errors"
	"math"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/mat"
	"gridmtd/internal/opf"
	"gridmtd/internal/subspace"
)

// TestGammaLargeCasesAgree pins the large-case γ contract: the evaluator
// (the rank-|S| kernel at or above grid.SparseThreshold buses) must agree
// with the exact uncached subspace.Gamma to 1e-9 radians.
func TestGammaLargeCasesAgree(t *testing.T) {
	cases := []string{"ieee57"}
	if !testing.Short() {
		cases = append(cases, "ieee118")
	}
	for _, name := range cases {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if n.N() < grid.SparseThreshold {
			t.Fatalf("%s unexpectedly below the sparse threshold", name)
		}
		xOld := n.Reactances()
		ev := NewGammaEvaluator(n, xOld)
		lo, hi := n.DFACTSBounds()
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			xd := make([]float64, len(lo))
			for i := range xd {
				xd[i] = lo[i] + frac*(hi[i]-lo[i])
			}
			xNew := n.ExpandDFACTS(xd)
			got := ev.Gamma(xNew)
			exact := subspace.Gamma(n.MeasurementMatrix(xOld), n.MeasurementMatrix(xNew))
			// Near γ = 0 (the box midpoint is x_old itself) acos turns
			// sub-ulp singular-value noise into ~1e-8 angle noise, so the
			// agreement check moves to the well-conditioned cosine scale
			// there.
			if exact < 1e-6 {
				if math.Abs(math.Cos(got)-math.Cos(exact)) > 1e-12 {
					t.Fatalf("%s frac %.2f: near-zero γ disagrees: evaluator %.3g vs exact %.3g", name, frac, got, exact)
				}
				continue
			}
			if math.Abs(got-exact) > 1e-9 {
				t.Fatalf("%s frac %.2f: evaluator γ %.15g vs exact %.15g", name, frac, got, exact)
			}
		}
	}
}

// TestSelectMTDUnreachableAngleSolvesNothing pins that a γ threshold past
// π/2, which no angle can meet, is rejected before the baseline OPF and
// the problem-(4) search: not one dispatch LP is solved.
func TestSelectMTDUnreachableAngleSolvesNothing(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	before := lp.GlobalRevisedStats().Solves
	_, err = SelectMTD(n, n.Reactances(), SelectConfig{GammaThreshold: math.Pi/2 + 1, Starts: 1, MaxEvals: 10})
	if !errors.Is(err, ErrConstraintUnreachable) {
		t.Fatalf("err = %v, want ErrConstraintUnreachable", err)
	}
	if d := lp.GlobalRevisedStats().Solves - before; d != 0 {
		t.Errorf("unreachable threshold ran %d dispatch solves, want 0", d)
	}
}

// TestSelectMTDParallelismInvariantSparse verifies the determinism
// contract on the warm-started sparse path: the warm LP basis lives in
// per-worker sessions and is reset at every local search, so the identical
// Selection must come back for any worker count even though which worker
// runs which start is scheduling-dependent.
func TestSelectMTDParallelismInvariantSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("57-bus selections take a second")
	}
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	var sels []*Selection
	for _, par := range []int{1, 4} {
		withProcs(t, par)
		sel, err := SelectMTD(n, xOld, SelectConfig{
			GammaThreshold: 0.05,
			Starts:         1,
			MaxEvals:       25,
			Seed:           3,
			BaselineCost:   1,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sels = append(sels, sel)
	}
	a, b := sels[0], sels[1]
	for i := range a.Reactances {
		if a.Reactances[i] != b.Reactances[i] {
			t.Fatalf("reactance %d differs across parallelism: %v vs %v", i, a.Reactances[i], b.Reactances[i])
		}
	}
	if a.Gamma != b.Gamma || a.OPF.CostPerHour != b.OPF.CostPerHour {
		t.Fatalf("selection metrics differ across parallelism: γ %v vs %v, cost %v vs %v",
			a.Gamma, b.Gamma, a.OPF.CostPerHour, b.OPF.CostPerHour)
	}
}

// TestSelectMTDIEEE118SparseSmoke is the large-case smoke: one quick-mode
// SelectMTD on the IEEE 118-bus system must complete through the sparse
// backend and meet its γ threshold. CI runs it explicitly so the sparse
// path cannot silently regress.
func TestSelectMTDIEEE118SparseSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("118-bus selection takes seconds")
	}
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	if got := grid.AnalyzeB(n, grid.AutoBackend).Backend(); got != grid.SparseBackend {
		t.Fatalf("auto backend on ieee118 = %v, want sparse", got)
	}
	xOld := n.Reactances()
	const gammaTh = 0.05
	sel, err := SelectMTD(n, xOld, SelectConfig{
		GammaThreshold: gammaTh,
		Starts:         1,
		MaxEvals:       30,
		Seed:           1,
		BaselineCost:   1, // skip the no-MTD baseline solve; cost metrics are not under test
	})
	if err != nil {
		t.Fatalf("SelectMTD(ieee118): %v", err)
	}
	if sel.Gamma < gammaTh-2e-3 {
		t.Fatalf("γ = %.4f below threshold %.2f", sel.Gamma, gammaTh)
	}
	if sel.OPF == nil || len(sel.OPF.DispatchMW) != len(n.Gens) {
		t.Fatal("missing OPF result")
	}

	// The dispatch engine's sparse and dense costs must agree closely on
	// the selected reactances (they solve the same LP from PTDFs that
	// agree to 1e-10).
	de, err := opf.NewDispatchEngineBackend(n, grid.DenseBackend)
	if err != nil {
		t.Fatal(err)
	}
	denseCost, err := de.Cost(sel.Reactances)
	if err != nil {
		t.Fatal(err)
	}
	rel := (denseCost - sel.OPF.CostPerHour) / denseCost
	if rel < -1e-6 || rel > 1e-6 {
		t.Fatalf("dense cost %.6f vs sparse-path cost %.6f (rel %g)", denseCost, sel.OPF.CostPerHour, rel)
	}
}

// TestIEEE300SparseSmoke is the 300-bus scaling smoke: the registry's
// largest case must resolve to the sparse backend, dispatch at its
// calibrated ratings, and evaluate γ through the rank-|S| kernel at a
// device corner. (A full 300-bus selection costs ~1 s per candidate — the
// selection machinery itself is smoked at 118 buses; this keeps the
// registry's largest case exercising the sparse dispatch and γ paths in
// seconds.)
func TestIEEE300SparseSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("300-bus solves take seconds")
	}
	n, err := grid.CaseByName("ieee300")
	if err != nil {
		t.Fatal(err)
	}
	if got := grid.AnalyzeB(n, grid.AutoBackend).Backend(); got != grid.SparseBackend {
		t.Fatalf("auto backend on ieee300 = %v, want sparse", got)
	}
	engine, err := opf.NewDispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	// Dispatch at the calibrated ratings, nominal reactances and at the
	// D-FACTS upper corner (the calibration leaves both operable).
	res, err := engine.Solve(n.Reactances())
	if err != nil {
		t.Fatalf("nominal dispatch: %v", err)
	}
	if math.Abs(mat.SumVec(res.DispatchMW)-n.TotalLoadMW()) > 1e-6*n.TotalLoadMW() {
		t.Fatalf("dispatch does not balance the %.0f MW demand", n.TotalLoadMW())
	}
	_, hi := n.DFACTSBounds()
	xCorner := n.ExpandDFACTS(hi)
	cornerCost, err := engine.Cost(xCorner)
	if err != nil {
		t.Fatalf("corner dispatch: %v", err)
	}
	if cornerCost < res.CostPerHour {
		t.Fatalf("corner cost %.1f below the nominal optimum %.1f", cornerCost, res.CostPerHour)
	}
	// The kernel's γ at the corner must clear the smoke threshold (the
	// 12-device deployment reaches ~0.16 rad) and agree with itself across
	// evaluator and session paths.
	ev := NewGammaEvaluator(n, n.Reactances())
	g := ev.Gamma(xCorner)
	if g < 0.05 {
		t.Fatalf("corner γ = %.4f, want a usable MTD range", g)
	}
	if gs := ev.NewSession().Gamma(xCorner); gs != g {
		t.Fatalf("session γ %.12f != evaluator γ %.12f", gs, g)
	}
}
