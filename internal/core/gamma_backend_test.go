package core

import (
	"math"
	"strings"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
	"gridmtd/internal/subspace"
)

// backendTestCases returns the registered cases the γ-backend agreement
// suite runs on: the paper's 14-bus system plus every large case in -short
// budget order.
func backendTestCases(t *testing.T) []string {
	t.Helper()
	cases := []string{"ieee14", "ieee57"}
	if !testing.Short() {
		cases = append(cases, "ieee118", "ieee300")
	}
	return cases
}

// backendTestPoints returns deterministic candidate D-FACTS settings
// spanning the device box.
func backendTestPoints(n *grid.Network) [][]float64 {
	lo, hi := n.DFACTSBounds()
	var pts [][]float64
	for _, frac := range []float64{0.0, 0.25, 0.6, 1.0} {
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = lo[i] + frac*(hi[i]-lo[i])
		}
		pts = append(pts, xd)
	}
	// An asymmetric point: alternating corners exercises sign structure the
	// uniform fractions miss.
	xd := make([]float64, len(lo))
	for i := range xd {
		if i%2 == 0 {
			xd[i] = lo[i]
		} else {
			xd[i] = hi[i]
		}
	}
	return append(pts, xd)
}

// checkAliasIsExact pins that a request under the alias gb is served by
// the exact evaluator: every γ-backend name builds its evaluator with
// NewGammaEvaluator, and a second evaluator so built gives bitwise-equal γ
// at every test point, pooled and through a session.
func checkAliasIsExact(t *testing.T, gb GammaBackend) {
	t.Helper()
	for _, name := range backendTestCases(t) {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		xOld := n.Reactances()
		exact := NewGammaEvaluator(n, xOld)
		alias := NewGammaEvaluator(n, xOld)
		for pi, xd := range backendTestPoints(n) {
			x := n.ExpandDFACTS(xd)
			ge := exact.Gamma(x)
			for _, g := range []float64{alias.Gamma(x), alias.NewSession().Gamma(x)} {
				if math.Float64bits(g) != math.Float64bits(ge) {
					t.Errorf("%s point %d: %v alias γ %.17g vs exact %.17g", name, pi, gb, g, ge)
				}
			}
		}
	}
}

// TestGammaSparseBackendAgreement: the sparse name is an alias of the
// exact evaluator.
func TestGammaSparseBackendAgreement(t *testing.T) { checkAliasIsExact(t, SparseGamma) }

// TestGammaSketchBackendAgreement: the sketch name is an alias of the
// exact evaluator.
func TestGammaSketchBackendAgreement(t *testing.T) { checkAliasIsExact(t, SketchGamma) }

// TestSketchWorkerCountInvariant is the determinism-across-worker-counts
// test for engines built under the sketch alias: a full MaxGamma search
// (corner poll fanned across workers + parallel multi-start) must return
// the identical Selection for any worker count.
func TestSketchWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("57-bus searches take a second")
	}
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	de, err := opf.NewDispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	var sels []*Selection
	for _, par := range []int{1, 4} {
		withProcs(t, par)
		eng := NewEnginesSharedBackend(n, xOld, de, SketchGamma)
		sel, err := MaxGammaWith(eng, n, xOld, MaxGammaConfig{
			Starts:       2,
			MaxEvals:     30,
			Seed:         5,
			BaselineCost: 1,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sels = append(sels, sel)
	}
	a, b := sels[0], sels[1]
	if a.Gamma != b.Gamma {
		t.Fatalf("γ differs across worker counts: %v vs %v", a.Gamma, b.Gamma)
	}
	for i := range a.Reactances {
		if a.Reactances[i] != b.Reactances[i] {
			t.Fatalf("reactance %d differs across worker counts: %v vs %v", i, a.Reactances[i], b.Reactances[i])
		}
	}
}

// TestSelectMTDSketchReportsExactGamma pins the alias contract end to
// end: a selection on engines built under the sketch alias reports the
// exact evaluator's γ at the selected reactances, clearing the threshold
// under the standard GammaTol.
func TestSelectMTDSketchReportsExactGamma(t *testing.T) {
	if testing.Short() {
		t.Skip("57-bus selection takes a second")
	}
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	de, err := opf.NewDispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEnginesSharedBackend(n, xOld, de, SketchGamma)
	const gth = 0.05
	sel, err := SelectMTDWith(eng, n, xOld, SelectConfig{
		GammaThreshold: gth,
		Starts:         1,
		MaxEvals:       25,
		Seed:           3,
		BaselineCost:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact := NewGammaEvaluator(n, xOld)
	if want := exact.Gamma(sel.Reactances); sel.Gamma != want {
		t.Fatalf("reported γ %.15g is not the exact value %.15g", sel.Gamma, want)
	}
	if sel.Gamma < gth-2e-3 {
		t.Fatalf("γ %.4f below threshold %.2f", sel.Gamma, gth)
	}
}

// TestGammaBackendParseAndResolve covers the request-facing surface:
// parse round-trips of every alias and the error listing every valid
// value.
func TestGammaBackendParseAndResolve(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want GammaBackend
	}{
		{"auto", subspace.AutoGamma}, {"", subspace.AutoGamma},
		{"exact", ExactGamma}, {"Exact", ExactGamma},
		{"sparse", SparseGamma}, {"sketch", SketchGamma},
	} {
		got, err := subspace.ParseGammaBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseGammaBackend(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	_, err := subspace.ParseGammaBackend("bogus")
	if err == nil {
		t.Fatal("ParseGammaBackend accepted a bogus value")
	}
	for _, name := range []string{"auto", "exact", "sparse", "sketch"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("parse error %q does not list the valid value %q", err, name)
		}
	}
}
