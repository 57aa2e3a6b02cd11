package stat

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormalVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := NormalVec(rng, 100000, 2.0)
	if len(x) != 100000 {
		t.Fatalf("len = %d", len(x))
	}
	if m := Mean(x); math.Abs(m) > 0.05 {
		t.Errorf("mean = %v, want ~0", m)
	}
	if s := math.Sqrt(Variance(x)); math.Abs(s-2) > 0.05 {
		t.Errorf("stddev = %v, want ~2", s)
	}
}

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Unbiased sample variance of the classic dataset is 32/7.
	if v := Variance(x); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/single-element edge cases wrong")
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(x, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Out-of-range q values are clamped.
	if got := Quantile(x, -1); got != 1 {
		t.Errorf("Quantile(-1) = %v, want 1", got)
	}
	if got := Quantile(x, 2); got != 5 {
		t.Errorf("Quantile(2) = %v, want 5", got)
	}
	if got := Quantile([]float64{42}, 0.5); got != 42 {
		t.Errorf("Quantile single = %v", got)
	}
	// Quantile must not mutate its input.
	y := []float64{3, 1, 2}
	Quantile(y, 0.5)
	if y[0] != 3 || y[1] != 1 || y[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile(nil, 0.5)
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
