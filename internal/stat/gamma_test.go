package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaIncLowerKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x} (exponential distribution CDF), read as
	// P = 1 - Q.
	cases := []struct {
		a, x, want float64
	}{
		{1, 0, 0},
		{1, 1, 1 - math.Exp(-1)},
		{1, 5, 1 - math.Exp(-5)},
		{0.5, 0.5, 0.6826894921370859}, // P(|N(0,1)| <= 1) via chi2(1)
		{2, 2, 1 - 3*math.Exp(-2)},     // Erlang(2) CDF at 2
	}
	for _, c := range cases {
		q, err := GammaIncUpper(c.a, c.x)
		if err != nil {
			t.Fatalf("GammaIncUpper(%v, %v): %v", c.a, c.x, err)
		}
		if got := 1 - q; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("1 - GammaIncUpper(%v, %v) = %.15f, want %.15f", c.a, c.x, got, c.want)
		}
	}
}

func TestGammaIncDomainErrors(t *testing.T) {
	if _, err := GammaIncUpper(0, 1); err == nil {
		t.Error("expected error for a=0")
	}
	if _, err := GammaIncUpper(1, -1); err == nil {
		t.Error("expected error for x<0")
	}
	if _, err := GammaIncUpper(-1, 1); err == nil {
		t.Error("expected error for a<0")
	}
	if _, err := GammaIncUpper(math.NaN(), 1); err == nil {
		t.Error("expected error for NaN a")
	}
}

// Property: P(a, x) = 1 - Q(a, x) is monotone nondecreasing in x.
func TestQuickGammaIncMonotone(t *testing.T) {
	f := func(aRaw, x1Raw, x2Raw float64) bool {
		a := 0.1 + math.Abs(math.Mod(aRaw, 50))
		x1 := math.Abs(math.Mod(x1Raw, 100))
		x2 := math.Abs(math.Mod(x2Raw, 100))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		q1, err1 := GammaIncUpper(a, x1)
		q2, err2 := GammaIncUpper(a, x2)
		if err1 != nil || err2 != nil {
			return false
		}
		return 1-q1 <= 1-q2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
