package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestChiSquareCDFKnown checks 1 − SF against closed-form chi-square CDFs.
func TestChiSquareCDFKnown(t *testing.T) {
	// chi2(2) is Exp(1/2): CDF(x) = 1 - e^{-x/2}.
	for _, x := range []float64{0.5, 1, 3, 10} {
		sf, err := ChiSquareSF(2, x)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-x/2)
		if got := 1 - sf; math.Abs(got-want) > 1e-12 {
			t.Errorf("1 - ChiSquareSF(2, %v) = %v, want %v", x, got, want)
		}
	}
	// chi2(1): CDF(x) = erf(sqrt(x/2)).
	sf, err := ChiSquareSF(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Erf(math.Sqrt(0.5))
	if got := 1 - sf; math.Abs(got-want) > 1e-12 {
		t.Errorf("1 - ChiSquareSF(1, 1) = %v, want %v", got, want)
	}
}

func TestChiSquareEdgeCases(t *testing.T) {
	if got, _ := ChiSquareSF(3, 0); got != 1 {
		t.Errorf("SF at 0 = %v, want 1", got)
	}
	if got, _ := ChiSquareSF(3, -5); got != 1 {
		t.Errorf("SF at negative = %v, want 1", got)
	}
	if _, err := ChiSquareSF(0, 1); err == nil {
		t.Error("expected domain error for k=0")
	}
}

func TestChiSquareQuantileUpperRoundTrip(t *testing.T) {
	for _, k := range []float64{1, 2, 13, 41, 95} {
		for _, alpha := range []float64{0.5, 0.05, 5e-4, 1e-6} {
			x, err := ChiSquareQuantileUpper(k, alpha)
			if err != nil {
				t.Fatalf("quantile k=%v alpha=%v: %v", k, alpha, err)
			}
			sf, err := ChiSquareSF(k, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sf-alpha) > 1e-9*(1+alpha) && math.Abs(sf-alpha) > 1e-12 {
				t.Errorf("SF(quantile) = %v, want %v (k=%v)", sf, alpha, k)
			}
		}
	}
}

func TestChiSquareQuantileKnown(t *testing.T) {
	// chi2inv(0.95, 1) = 3.841458820694124 (standard table value).
	x, err := ChiSquareQuantileUpper(1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-3.841458820694124) > 1e-8 {
		t.Errorf("chi2 upper quantile(1, 0.05) = %v, want 3.8414588", x)
	}
	// chi2inv(0.99, 5) = 15.08627246938899.
	x, err = ChiSquareQuantileUpper(5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-15.08627246938899) > 1e-7 {
		t.Errorf("chi2 upper quantile(5, 0.01) = %v, want 15.0862724", x)
	}
}

func TestChiSquareQuantileDomain(t *testing.T) {
	if _, err := ChiSquareQuantileUpper(3, 0); err == nil {
		t.Error("expected error for alpha=0")
	}
	if _, err := ChiSquareQuantileUpper(3, 1); err == nil {
		t.Error("expected error for alpha=1")
	}
	if _, err := ChiSquareQuantileUpper(-1, 0.5); err == nil {
		t.Error("expected error for k<0")
	}
}

func TestNoncentralChiSquareReducesToCentral(t *testing.T) {
	for _, k := range []float64{1, 5, 41} {
		for _, x := range []float64{1, 10, 60} {
			nc, err := NoncentralChiSquareSF(k, 0, x)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ChiSquareSF(k, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(nc-c) > 1e-12 {
				t.Errorf("NC(λ=0) = %v, central = %v (k=%v, x=%v)", nc, c, k, x)
			}
		}
	}
}

func TestNoncentralChiSquareMonteCarlo(t *testing.T) {
	// Compare against direct simulation: sum of (Z_i + mu_i)^2 with
	// sum(mu^2) = lambda.
	rng := rand.New(rand.NewSource(99))
	k := 5
	lambda := 12.0
	x := 25.0
	mu := math.Sqrt(lambda / float64(k))
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < k; j++ {
			z := rng.NormFloat64() + mu
			s += z * z
		}
		if s > x {
			hits++
		}
	}
	mc := float64(hits) / n
	got, err := NoncentralChiSquareSF(float64(k), lambda, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-mc) > 0.01 {
		t.Errorf("NoncentralChiSquareSF = %v, Monte Carlo = %v", got, mc)
	}
}

func TestNoncentralChiSquareLargeLambda(t *testing.T) {
	// With huge noncentrality the variable concentrates far above any
	// moderate threshold.
	sf, err := NoncentralChiSquareSF(41, 5000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sf < 1-1e-9 {
		t.Errorf("SF = %v, want ~1 for lambda >> x", sf)
	}
}

func TestNoncentralChiSquareDomain(t *testing.T) {
	if _, err := NoncentralChiSquareSF(0, 1, 1); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := NoncentralChiSquareSF(1, -1, 1); err == nil {
		t.Error("expected error for lambda<0")
	}
	if got, _ := NoncentralChiSquareSF(3, 5, 0); got != 1 {
		t.Errorf("SF at 0 = %v, want 1", got)
	}
}

// Property: SF is monotone increasing in the noncentrality parameter
// (this is the fact Theorem 1's proof relies on).
func TestQuickNoncentralMonotoneInLambda(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + float64(r.Intn(60))
		x := r.Float64() * 100
		l1 := r.Float64() * 50
		l2 := l1 + r.Float64()*50
		s1, err1 := NoncentralChiSquareSF(k, l1, x)
		s2, err2 := NoncentralChiSquareSF(k, l2, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return s2 >= s1-1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNoncentralChiSquareLambdaForSF(t *testing.T) {
	// Round trip: SF(k, lambda(p), x) == p.
	k, x := 41.0, 78.0
	for _, p := range []float64{0.5, 0.8, 0.9, 0.95, 0.999} {
		lambda, err := NoncentralChiSquareLambdaForSF(k, x, p)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		sf, err := NoncentralChiSquareSF(k, lambda, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sf-p) > 1e-8 {
			t.Errorf("SF(lambda(%v)) = %v", p, sf)
		}
	}
}

func TestNoncentralChiSquareLambdaForSFEdge(t *testing.T) {
	// Below the central SF no noncentrality is required.
	central, err := ChiSquareSF(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := NoncentralChiSquareLambdaForSF(10, 30, central/2)
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 0 {
		t.Errorf("lambda = %v, want 0", lambda)
	}
	if _, err := NoncentralChiSquareLambdaForSF(0, 1, 0.5); err == nil {
		t.Error("expected domain error for k=0")
	}
	if _, err := NoncentralChiSquareLambdaForSF(1, 1, 0); err == nil {
		t.Error("expected domain error for p=0")
	}
	if _, err := NoncentralChiSquareLambdaForSF(1, 1, 1); err == nil {
		t.Error("expected domain error for p=1")
	}
}
