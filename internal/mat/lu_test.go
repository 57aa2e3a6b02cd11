package mat

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve returns x with a*x = b for square a, factoring a once.
func solve(a *Dense, b []float64) ([]float64, error) {
	f, err := ComputeLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := NewDenseFrom(2, 2, []float64{2, 1, 1, 3})
	x, err := solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(x, []float64{1, 3}, 1e-12) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 2, 4})
	_, err := solve(a, []float64{1, 2})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position requires a row swap.
	a := NewDenseFrom(2, 2, []float64{0, 1, 1, 0})
	x, err := solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(x, []float64{3, 2}, 1e-14) {
		t.Fatalf("Solve = %v, want [3 2]", x)
	}
}

func TestInverse(t *testing.T) {
	// Solving against each column of I builds A⁻¹ from one factorization.
	rng := rand.New(rand.NewSource(31))
	a := randomDense(rng, 5, 5)
	f, err := ComputeLU(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := NewDense(5, 5)
	e := make([]float64, 5)
	for j := 0; j < 5; j++ {
		e[j] = 1
		inv.SetCol(j, f.Solve(e))
		e[j] = 0
	}
	if !equal(mul(a, inv), Identity(5), 1e-9) {
		t.Error("A * A^-1 != I")
	}
	if !equal(mul(inv, a), Identity(5), 1e-9) {
		t.Error("A^-1 * A != I")
	}
}

func TestComputeLUPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	if _, err := ComputeLU(NewDense(2, 3)); err != nil {
		t.Fatal(err)
	}
}

// Property: for random well-conditioned systems, the solve residual is tiny.
func TestQuickSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randomDense(r, n, n)
		// Diagonal dominance guarantees invertibility and conditioning.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := solve(a, b)
		if err != nil {
			return false
		}
		res := SubVec(MulVec(a, x), b)
		return Norm2(res) < 1e-10*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLUResetReuse refactors a sequence of matrices through one LU and
// compares against fresh factorizations.
func TestLUResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var f LU
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		if err := f.Reset(a); err != nil {
			continue // singular draw
		}
		fresh, err := ComputeLU(a)
		if err != nil {
			t.Fatalf("trial %d: fresh LU failed after Reset succeeded", trial)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := fresh.Solve(b)
		got := make([]float64, n)
		f.SolveInto(got, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}
