package stat

import "testing"

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Error("Mean of an empty slice must be 0")
	}
}

func TestFractions(t *testing.T) {
	x := []float64{0.1, 0.5, 0.5, 0.9}
	if got := FractionAtLeast(x, 0.5); got != 0.75 {
		t.Errorf("FractionAtLeast = %v, want 0.75", got)
	}
	if FractionAtLeast(nil, 0) != 0 {
		t.Error("empty-slice fractions should be 0")
	}
}
