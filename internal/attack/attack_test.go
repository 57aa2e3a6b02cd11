package attack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridmtd/internal/dcflow"
	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/se"
)

func setup14(t *testing.T) (*grid.Network, *mat.Dense, []float64) {
	t.Helper()
	n := grid.CaseIEEE14()
	h := n.MeasurementMatrix(n.Reactances())
	inj := n.InjectionsMW([]float64{220, 10, 9, 10, 10})
	res, err := dcflow.Solve(n, n.Reactances(), inj)
	if err != nil {
		t.Fatal(err)
	}
	z := dcflow.Measurements(n, inj, res)
	return n, h, z
}

func TestCraft(t *testing.T) {
	_, h, _ := setup14(t)
	c := make([]float64, h.Cols())
	c[0] = 1
	v := Craft(h, c)
	if !mat.VecEqual(v.A, h.T().RowView(0), 1e-14) {
		t.Fatal("Craft(e1) must return the first column of H")
	}
	// C must be a copy, not an alias.
	c[0] = 99
	if v.C[0] == 99 {
		t.Error("Craft aliases the input c")
	}
}

func TestCraftedAttackIsStealthyOnOldH(t *testing.T) {
	_, h, _ := setup14(t)
	est, err := se.NewEstimator(h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		c := make([]float64, h.Cols())
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		v := Craft(h, c)
		if !est.IsStealthy(v.A, 0) {
			t.Fatalf("crafted attack %d is not stealthy on its own H", i)
		}
	}
}

func TestRandomAttackScaling(t *testing.T) {
	_, h, z := setup14(t)
	rng := rand.New(rand.NewSource(8))
	for _, ratio := range []float64{0.01, 0.08, 0.3} {
		v, err := Random(rng, h, z, ratio)
		if err != nil {
			t.Fatal(err)
		}
		if got := mat.Norm1(v.A) / mat.Norm1(z); math.Abs(got-ratio) > 1e-9 {
			t.Errorf("ratio = %v, want %v", got, ratio)
		}
		// a must equal H·c after scaling too.
		if !mat.VecEqual(v.A, mat.MulVec(h, v.C), 1e-10) {
			t.Error("scaled attack inconsistent: a != H·c")
		}
	}
}

func TestRandomAttackErrors(t *testing.T) {
	_, h, z := setup14(t)
	rng := rand.New(rand.NewSource(9))
	if _, err := Random(rng, h, z, 0); err == nil {
		t.Error("expected error for ratio 0")
	}
	if _, err := Random(rng, h, make([]float64, len(z)), 0.1); err == nil {
		t.Error("expected error for zero measurement vector")
	}
}

// stealthy applies the paper's Proposition 1 as the estimator decides it:
// a stays undetectable under hNew iff its residual component vanishes,
// i.e. a lies in Col(hNew).
func stealthy(t *testing.T, hNew *mat.Dense, a []float64) bool {
	t.Helper()
	est, err := se.NewEstimator(hNew)
	if err != nil {
		t.Fatal(err)
	}
	return est.IsStealthy(a, 0)
}

func TestIsUndetectableAfterPerturbation(t *testing.T) {
	// 4-bus motivating example: attack 2 (c = e4) involves only branches
	// 3-4, so perturbing branch 1 or 2 leaves it stealthy while perturbing
	// branch 3 or 4 exposes it (paper Table I zero pattern).
	n := grid.Case4GS()
	h := n.MeasurementMatrix(n.Reactances())
	// Reduced state c: buses 2,3,4 -> c = e_{bus4} = [0,0,1].
	attack2 := Craft(h, []float64{0, 0, 1})

	for line := 0; line < 4; line++ {
		x := n.Reactances()
		x[line] *= 1.2
		hNew := n.MeasurementMatrix(x)
		got := stealthy(t, hNew, attack2.A)
		want := line == 0 || line == 1 // stealthy when perturbing lines 1-2
		if got != want {
			t.Errorf("perturbing line %d: undetectable = %v, want %v", line+1, got, want)
		}
	}

	// Attack 1 (c = [0,1,1,1] over all buses = [1,1,1] reduced) involves
	// only branches 1-2: the pattern flips.
	attack1 := Craft(h, []float64{1, 1, 1})
	for line := 0; line < 4; line++ {
		x := n.Reactances()
		x[line] *= 1.2
		hNew := n.MeasurementMatrix(x)
		got := stealthy(t, hNew, attack1.A)
		want := line == 2 || line == 3
		if got != want {
			t.Errorf("attack1, perturbing line %d: undetectable = %v, want %v", line+1, got, want)
		}
	}
}

func TestZeroAttackUndetectable(t *testing.T) {
	_, h, _ := setup14(t)
	if !stealthy(t, h, make([]float64, h.Rows())) {
		t.Error("zero attack must be undetectable")
	}
}

// Property: attacks crafted on H are undetectable on any scalar multiple of
// H (the paper's perfectly-aligned column space case) but become detectable
// under a D-FACTS perturbation of a branch their c touches.
func TestQuickScalingKeepsStealth(t *testing.T) {
	n := grid.CaseIEEE14()
	h := n.MeasurementMatrix(n.Reactances())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := make([]float64, h.Cols())
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		v := Craft(h, c)
		scaled := mat.NewDenseFrom(h.Rows(), h.Cols(), mat.ScaleVec(1+rng.Float64(), h.RawData()))
		return stealthy(t, scaled, v.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRandomBatchMatchesRandom: the packed sampler must consume the
// generator exactly as sequential Random calls and produce bitwise
// identical attacks.
func TestRandomBatchMatchesRandom(t *testing.T) {
	h := testH(t)
	z := testZ(h.Rows())
	const k = 25

	single := make([]*Vector, k)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < k; i++ {
		v, err := Random(rng, h, z, 0.08)
		if err != nil {
			t.Fatal(err)
		}
		single[i] = v
	}

	rng = rand.New(rand.NewSource(77))
	batch, err := RandomBatch(rng, h, z, 0.08, k)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Len() != k {
		t.Fatalf("Len = %d, want %d", batch.Len(), k)
	}
	for i := 0; i < k; i++ {
		for j, v := range single[i].A {
			if batch.A(i)[j] != v {
				t.Fatalf("attack %d: A[%d] = %v, want %v", i, j, batch.A(i)[j], v)
			}
		}
		for j, v := range single[i].C {
			if batch.C(i)[j] != v {
				t.Fatalf("attack %d: C[%d] = %v, want %v", i, j, batch.C(i)[j], v)
			}
		}
	}
}

// testH builds a small full-rank measurement-like matrix.
func testH(t *testing.T) *mat.Dense {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	h := mat.NewDense(12, 4)
	for i := 0; i < h.Rows(); i++ {
		for j := 0; j < h.Cols(); j++ {
			h.Set(i, j, rng.NormFloat64())
		}
	}
	return h
}

func testZ(m int) []float64 {
	z := make([]float64, m)
	for i := range z {
		z[i] = 1 + float64(i%5)
	}
	return z
}

// TestRandomBatchSparseMatchesDense pins the sparse draw a = H·c to the
// dense row-by-row product (mat.MulVecInto) bitwise on the large cases,
// where H is mostly zeros: the same generator stream, the same scaling,
// the same C and A bits.
func TestRandomBatchSparseMatchesDense(t *testing.T) {
	for _, name := range []string{"ieee57", "ieee118", "ieee300"} {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		h := n.MeasurementMatrix(n.Reactances())
		z := testZ(h.Rows())
		const k, ratio = 40, 0.08
		batch, err := RandomBatch(rand.New(rand.NewSource(20)), h, z, ratio, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(20))
		c := make([]float64, h.Cols())
		a := make([]float64, h.Rows())
		for i := 0; i < k; i++ {
			for j := range c {
				c[j] = rng.NormFloat64()
			}
			mat.MulVecInto(a, h, c)
			scale := ratio * mat.Norm1(z) / mat.Norm1(a)
			for j, v := range c {
				if got := batch.C(i)[j]; math.Float64bits(got) != math.Float64bits(scale*v) {
					t.Fatalf("%s attack %d: C[%d] = %v, dense path %v", name, i, j, got, scale*v)
				}
			}
			for j, v := range a {
				if got := batch.A(i)[j]; math.Float64bits(got) != math.Float64bits(scale*v) {
					t.Fatalf("%s attack %d: A[%d] = %v, dense path %v", name, i, j, got, scale*v)
				}
			}
		}
	}
}
