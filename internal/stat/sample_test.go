package stat

import "testing"

func TestFractions(t *testing.T) {
	x := []float64{0.1, 0.5, 0.5, 0.9}
	if got := FractionAtLeast(x, 0.5); got != 0.75 {
		t.Errorf("FractionAtLeast = %v, want 0.75", got)
	}
	if FractionAtLeast(nil, 0) != 0 {
		t.Error("empty-slice fractions should be 0")
	}
}
