package sim

import (
	"math"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/subspace"
)

func TestEstimateColumnSpaceExact(t *testing.T) {
	// Noise-free samples spanning the space recover it exactly.
	n := grid.CaseIEEE14()
	x := n.Reactances()
	h := n.MeasurementMatrix(x)
	ht := h.T()
	samples := make([][]float64, 0, h.Cols())
	for j := 0; j < h.Cols(); j++ {
		samples = append(samples, ht.RowView(j))
	}
	basis, err := EstimateColumnSpace(samples, h.Cols())
	if err != nil {
		t.Fatal(err)
	}
	if g := subspace.Gamma(h, basis); g > 1e-6 {
		t.Errorf("exact recovery failed: gamma = %v", g)
	}
}

func TestEstimateColumnSpaceErrors(t *testing.T) {
	if _, err := EstimateColumnSpace(nil, 2); err == nil {
		t.Error("expected error for no samples")
	}
	if _, err := EstimateColumnSpace([][]float64{{1, 2}}, 0); err == nil {
		t.Error("expected error for dim 0")
	}
	if _, err := EstimateColumnSpace([][]float64{{1, 2}}, 2); err == nil {
		t.Error("expected error for too few samples")
	}
	if _, err := EstimateColumnSpace([][]float64{{1, 2}, {1}}, 1); err == nil {
		t.Error("expected error for ragged samples")
	}
}

func TestEstimateColumnSpaceMoreSamplesThanSensors(t *testing.T) {
	// K > M exercises the transpose branch.
	samples := make([][]float64, 10)
	for k := range samples {
		samples[k] = []float64{float64(k + 1), float64(2 * (k + 1)), 0}
	}
	basis, err := EstimateColumnSpace(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All samples are multiples of (1, 2, 0)/√5.
	want := []float64{1 / math.Sqrt(5), 2 / math.Sqrt(5), 0}
	got := basis.T().RowView(0)
	if math.Abs(math.Abs(mat.Dot(got, want))-1) > 1e-9 {
		t.Errorf("basis = %v, want ±%v", got, want)
	}
}

func TestSimulateLearningConvergesAndMTDInvalidates(t *testing.T) {
	n := grid.CaseIEEE14()
	x := n.Reactances()

	few, err := SimulateLearning(n, x, LearningConfig{Samples: 20, Sigma: 0.002, JitterMW: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := SimulateLearning(n, x, LearningConfig{Samples: 400, Sigma: 0.002, JitterMW: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !(many.SubspaceError < few.SubspaceError) {
		t.Errorf("learning did not improve with samples: %v -> %v", few.SubspaceError, many.SubspaceError)
	}
	if many.SubspaceError > 0.3 {
		t.Errorf("with 400 diverse samples the subspace error %v should be small", many.SubspaceError)
	}

	// An MTD perturbation must invalidate the learned estimate: the angle
	// from the learned basis to the NEW H is much larger than to the old.
	xNew := x
	xNew = append([]float64(nil), xNew...)
	for _, i := range n.DFACTSIndices() {
		xNew[i] = n.Branches[i].XMax
	}
	hNew := n.MeasurementMatrix(xNew)
	angleToNew := subspace.Gamma(hNew, many.Basis)
	if !(angleToNew > 3*many.SubspaceError) {
		t.Errorf("MTD did not invalidate attacker knowledge: error to old %v, to new %v",
			many.SubspaceError, angleToNew)
	}
}

func TestSimulateLearningValidation(t *testing.T) {
	n := grid.CaseIEEE14()
	if _, err := SimulateLearning(n, n.Reactances(), LearningConfig{Samples: 0}); err == nil {
		t.Error("expected error for zero samples")
	}
	if _, err := SimulateLearning(n, n.Reactances(), LearningConfig{Samples: 10, Sigma: -1}); err == nil {
		t.Error("expected error for negative sigma")
	}
}
