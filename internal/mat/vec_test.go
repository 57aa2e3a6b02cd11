package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
	// Must not overflow for large components.
	big := Norm2([]float64{1e300, 1e300})
	if math.IsInf(big, 0) || math.Abs(big-1e300*math.Sqrt2) > 1e286 {
		t.Fatalf("Norm2 overflow handling wrong: %v", big)
	}
}

func TestNorm1NormInf(t *testing.T) {
	x := []float64{-1, 2, -3}
	if got := Norm1(x); got != 6 {
		t.Errorf("Norm1 = %v, want 6", got)
	}
}

func TestVectorArithmetic(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 5}
	if got := SubVec(x, y); !VecEqual(got, []float64{-2, -3}, 0) {
		t.Errorf("SubVec = %v", got)
	}
	if got := ScaleVec(2, x); !VecEqual(got, []float64{2, 4}, 0) {
		t.Errorf("ScaleVec = %v", got)
	}
	z := CopyVec(y)
	AxpyVec(2, x, z)
	if !VecEqual(z, []float64{5, 9}, 0) {
		t.Errorf("AxpyVec = %v", z)
	}
	// CopyVec independence.
	c := CopyVec(x)
	c[0] = 42
	if x[0] != 1 {
		t.Error("CopyVec aliases input")
	}
}

func TestConstructors(t *testing.T) {
	if got := Ones(2); !VecEqual(got, []float64{1, 1}, 0) {
		t.Errorf("Ones = %v", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	x := []float64{3, -1, 2}
	if SumVec(x) != 4 {
		t.Errorf("SumVec wrong for %v", x)
	}
}

func TestVecEqual(t *testing.T) {
	if !VecEqual([]float64{1, 2}, []float64{1.0000001, 2}, 1e-3) {
		t.Error("VecEqual should accept within tolerance")
	}
	if VecEqual([]float64{1}, []float64{1, 2}, 1) {
		t.Error("VecEqual must reject different lengths")
	}
}

// Property: the Cauchy-Schwarz inequality |x·y| <= ||x|| ||y||.
func TestQuickCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the triangle inequality ||x+y|| <= ||x|| + ||y||.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * math.Exp(float64(r.Intn(10)-5))
			y[i] = r.NormFloat64() * math.Exp(float64(r.Intn(10)-5))
		}
		xy := CopyVec(x)
		AxpyVec(1, y, xy)
		return Norm2(xy) <= Norm2(x)+Norm2(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
