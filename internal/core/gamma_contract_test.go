package core

import (
	"math"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/subspace"
)

// referenceGamma is the uncached principal-angle pipeline Gamma is
// contracted against: both full measurement matrices, twice-applied
// Gram-Schmidt on each, the full singular-value spectrum.
func referenceGamma(n *grid.Network, xOld, xNew []float64) float64 {
	return subspace.Gamma(n.MeasurementMatrix(xOld), n.MeasurementMatrix(xNew))
}

// TestGammaBitwiseBelowThreshold pins the lower tier of Gamma's contract:
// below grid.SparseThreshold buses the γ engine runs the reference
// pipeline's float operations, so the result is the same bits.
func TestGammaBitwiseBelowThreshold(t *testing.T) {
	for _, name := range []string{"ieee14", "ieee30"} {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if n.N() >= grid.SparseThreshold {
			t.Fatalf("%s unexpectedly at or above the fast-kernel threshold", name)
		}
		xOld := n.Reactances()
		for i, xd := range backendTestPoints(n) {
			xNew := n.ExpandDFACTS(xd)
			if got, want := Gamma(n, xOld, xNew), referenceGamma(n, xOld, xNew); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s point %d: Gamma %v, reference %v (not bitwise)", name, i, got, want)
			}
		}
	}
}

// TestGammaBitwiseUnderDenseBackend pins the -backend dense tier: a case
// above the threshold keeps the reference bits when the process default
// grid backend is dense.
func TestGammaBitwiseUnderDenseBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("ieee118 reference pipeline in -short mode")
	}
	grid.SetDefaultBackend(grid.DenseBackend)
	defer grid.SetDefaultBackend(grid.AutoBackend)
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	for i, xd := range backendTestPoints(n)[:3] {
		xNew := n.ExpandDFACTS(xd)
		if got, want := Gamma(n, xOld, xNew), referenceGamma(n, xOld, xNew); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ieee118 point %d: Gamma %v, reference %v (not bitwise)", i, got, want)
		}
	}
}

// TestGammaAgreesAboveThreshold pins the upper tier: at or above the
// threshold Gamma runs the fast kernels on the reduced rows and agrees
// with the reference within 1e-9 rad (cosine scale near γ = 0, where acos
// turns sub-ulp singular-value noise into ~1e-8 angle noise).
func TestGammaAgreesAboveThreshold(t *testing.T) {
	cases := []string{"ieee57"}
	if !testing.Short() {
		cases = append(cases, "ieee118", "ieee300")
	}
	for _, name := range cases {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		xOld := n.Reactances()
		pts := backendTestPoints(n)
		if name == "ieee300" {
			pts = pts[:2]
		}
		for i, xd := range pts {
			xNew := n.ExpandDFACTS(xd)
			got, want := Gamma(n, xOld, xNew), referenceGamma(n, xOld, xNew)
			if want < 1e-6 {
				if math.Abs(math.Cos(got)-math.Cos(want)) > 1e-12 {
					t.Errorf("%s point %d: near-zero γ disagrees: %.3g vs reference %.3g", name, i, got, want)
				}
				continue
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s point %d: Gamma %.15g, reference %.15g", name, i, got, want)
			}
		}
	}
}
