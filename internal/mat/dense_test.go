package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDense(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("got shape %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseFrom(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := NewDenseFrom(2, 3, data)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("row-major layout wrong: %v", m)
	}
	// The matrix must not alias the input slice.
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("NewDenseFrom aliases caller data")
	}
}

func TestNewDenseFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseFrom(2, 2, []float64{1, 2, 3})
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 7 {
		t.Fatalf("At(0,1) = %v, want 7", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewDense(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("Identity(3)[%d][%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	want := NewDenseFrom(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !equal(mt, want, 0) {
		t.Fatalf("T = %v, want %v", mt, want)
	}
}

func TestMul(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MulInto(NewDense(2, 2), a, b)
	want := NewDenseFrom(2, 2, []float64{58, 64, 139, 154})
	if !equal(got, want, 1e-14) {
		t.Fatalf("MulInto = %v, want %v", got, want)
	}
}

// mul returns the product a·b: the reference product of the mat tests.
func mul(a, b *Dense) *Dense { return MulInto(NewDense(a.Rows(), b.Cols()), a, b) }

// equal reports whether a and b have the same shape and all entries agree
// within tol.
func equal(a, b *Dense, tol float64) bool {
	return a.rows == b.rows && a.cols == b.cols && VecEqual(a.data, b.data, tol)
}

func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MulInto(NewDense(2, 3), NewDense(2, 3), NewDense(2, 3))
}

func TestMulVec(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
}

func TestMulVecT(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVecT(a, []float64{1, 1})
	want := []float64{5, 7, 9}
	if !VecEqual(got, want, 1e-14) {
		t.Fatalf("MulVecT = %v, want %v", got, want)
	}
}

func TestRowColAccessors(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if got := m.RowView(1); !VecEqual(got, []float64{4, 5, 6}, 0) {
		t.Errorf("RowView(1) = %v", got)
	}
	m.SetCol(0, []float64{7, 8})
	if m.At(0, 0) != 7 || m.At(1, 0) != 8 {
		t.Error("SetCol failed")
	}
	// RowView is a view: a write through it lands in the matrix.
	m.RowView(0)[1] = -1
	if m.At(0, 1) != -1 {
		t.Error("RowView does not alias the matrix")
	}
}

func TestSubmatrixAndDropCol(t *testing.T) {
	m := NewDenseFrom(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	s := m.Submatrix(1, 3, 0, 2)
	want := NewDenseFrom(2, 2, []float64{4, 5, 7, 8})
	if !equal(s, want, 0) {
		t.Errorf("Submatrix = %v, want %v", s, want)
	}
}

func TestEqualShapes(t *testing.T) {
	if equal(NewDense(2, 2), NewDense(2, 3), 1) {
		t.Error("Equal must be false for different shapes")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewDenseFrom(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// Property: (AB)ᵀ = BᵀAᵀ for random matrices.
func TestQuickTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomDense(rng, m, k)
		b := randomDense(rng, k, n)
		left := mul(a, b).T()
		right := mul(b.T(), a.T())
		return equal(left, right, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestQuickDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randomDense(rng, m, k)
		b := randomDense(rng, k, n)
		c := randomDense(rng, k, n)
		bc := b.Clone()
		AxpyVec(1, c.RawData(), bc.RawData())
		left := mul(a, bc)
		right := mul(a, b)
		AxpyVec(1, mul(a, c).RawData(), right.RawData())
		return equal(left, right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestIntoVariantsMatchAllocating checks the workspace variants against
// their allocating counterparts bitwise.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := NewDense(7, 5)
	b := NewDense(5, 6)
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 6; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	x5 := make([]float64, 5)
	x7 := make([]float64, 7)
	for i := range x5 {
		x5[i] = rng.NormFloat64()
	}
	for i := range x7 {
		x7[i] = rng.NormFloat64()
	}

	// dst starts dirty: MulInto must overwrite it. Each product column is
	// a·(that column of b), which MulVec computes in the same order.
	dst := NewDense(7, 6)
	dst.Set(3, 2, 1)
	got, bt := MulInto(dst, a, b).T(), b.T()
	for j := 0; j < 6; j++ {
		if !VecEqual(got.RowView(j), MulVec(a, bt.RowView(j)), 0) {
			t.Fatalf("MulInto column %d differs from MulVec", j)
		}
	}
	gotV := MulVecInto(make([]float64, 7), a, x5)
	for i, v := range MulVec(a, x5) {
		if gotV[i] != v {
			t.Fatal("MulVecInto differs from MulVec")
		}
	}
	if got := TransposeInto(NewDense(5, 7), a); !equal(got, a.T(), 0) {
		t.Fatal("TransposeInto differs from T")
	}

	// RowView shares backing storage.
	rv := a.RowView(2)
	rv[0] = 42
	if a.At(2, 0) != 42 {
		t.Fatal("RowView does not alias the matrix")
	}
}
