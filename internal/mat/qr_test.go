package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComputeQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{3, 3}, {5, 3}, {10, 4}, {54, 13}, {1, 1}} {
		a := randomDense(rng, shape[0], shape[1])
		qr := ComputeQR(a)
		back := mul(qr.Q, qr.R)
		if !equal(back, a, 1e-10) {
			t.Errorf("QR reconstruction failed for %dx%d", shape[0], shape[1])
		}
		// Q must have orthonormal columns.
		qtq := mul(qr.Q.T(), qr.Q)
		if !equal(qtq, Identity(shape[1]), 1e-10) {
			t.Errorf("QᵀQ != I for %dx%d", shape[0], shape[1])
		}
		// R must be upper triangular.
		for i := 0; i < qr.R.Rows(); i++ {
			for j := 0; j < i; j++ {
				if math.Abs(qr.R.At(i, j)) > 1e-12 {
					t.Errorf("R not upper triangular at (%d,%d): %g", i, j, qr.R.At(i, j))
				}
			}
		}
	}
}

func TestComputeQRPanicsForWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide matrix")
		}
	}()
	ComputeQR(NewDense(2, 3))
}

// rank counts the singular values of a above 1e-10 times the largest, on
// aᵀ when a is wide.
func rank(a *Dense) int {
	if a.Rows() < a.Cols() {
		a = a.T()
	}
	sv := new(SVDWorkspace).SingularValues(a)
	got := 0
	for _, s := range sv {
		if s > 1e-10*sv[0] {
			got++
		}
	}
	return got
}

// TestRank checks that the singular values expose the numerical rank of
// full, dependent, zero and wide matrices.
func TestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomDense(rng, 6, 4)
	if got := rank(a); got != 4 {
		t.Errorf("random 6x4 rank = %d, want 4", got)
	}
	// Make column 3 a combination of columns 0 and 1.
	for i := 0; i < 6; i++ {
		a.Set(i, 3, a.At(i, 0)-2*a.At(i, 1))
	}
	if got := rank(a); got != 3 {
		t.Errorf("rank after dependency = %d, want 3", got)
	}
	if got := rank(NewDense(3, 3)); got != 0 {
		t.Errorf("rank of zero matrix = %d, want 0", got)
	}
	// Wide matrices are handled via transpose.
	if got := rank(randomDense(rng, 2, 5)); got != 2 {
		t.Errorf("rank of wide 2x5 = %d, want 2", got)
	}
}

// Property: QR of a random tall matrix always satisfies A = QR and QᵀQ = I.
func TestQuickQR(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		m := n + r.Intn(10)
		a := randomDense(r, m, n)
		qr := ComputeQR(a)
		return equal(mul(qr.Q, qr.R), a, 1e-9) &&
			equal(mul(qr.Q.T(), qr.Q), Identity(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
