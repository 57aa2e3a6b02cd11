package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestComputeSVDKnown(t *testing.T) {
	// diag(1, 3, 2) has singular values 3, 2, 1.
	a := NewDenseFrom(3, 3, []float64{1, 0, 0, 0, 3, 0, 0, 0, 2})
	sv := new(SVDWorkspace).SingularValues(a)
	want := []float64{3, 2, 1}
	if !VecEqual(sv, want, 1e-12) {
		t.Fatalf("singular values = %v, want %v", sv, want)
	}
}

func TestComputeSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range [][2]int{{4, 4}, {6, 3}, {20, 13}, {54, 13}} {
		a := randomDense(rng, shape[0], shape[1])
		svd := ComputeSVD(a)
		// A = U S Vᵀ
		us := svd.U.Clone() // U·diag(S)
		for i := 0; i < us.Rows(); i++ {
			for j, s := range svd.S {
				us.Set(i, j, us.At(i, j)*s)
			}
		}
		back := mul(us, svd.V.T())
		if !equal(back, a, 1e-9) {
			t.Errorf("SVD reconstruction failed for %dx%d", shape[0], shape[1])
		}
		// Orthonormality.
		if !equal(mul(svd.U.T(), svd.U), Identity(shape[1]), 1e-9) {
			t.Errorf("UᵀU != I for %dx%d", shape[0], shape[1])
		}
		if !equal(mul(svd.V.T(), svd.V), Identity(shape[1]), 1e-9) {
			t.Errorf("VᵀV != I for %dx%d", shape[0], shape[1])
		}
		// Descending order, nonnegative.
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(svd.S))) {
			t.Errorf("singular values not sorted: %v", svd.S)
		}
		for _, s := range svd.S {
			if s < 0 {
				t.Errorf("negative singular value %v", s)
			}
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := randomDense(rng, 8, 2)
	a := NewDense(8, 3)
	for i := 0; i < 8; i++ {
		a.Set(i, 0, base.At(i, 0))
		a.Set(i, 1, base.At(i, 1))
		a.Set(i, 2, base.At(i, 0)-base.At(i, 1))
	}
	sv := new(SVDWorkspace).SingularValues(a)
	if sv[2] > 1e-10*sv[0] {
		t.Errorf("expected third singular value ~0, got %v (largest %v)", sv[2], sv[0])
	}
}

func TestSVDSingularValuesMatchEigenvalues(t *testing.T) {
	// For A = [[2, 0], [0, -5]], singular values are 5 and 2.
	a := NewDenseFrom(2, 2, []float64{2, 0, 0, -5})
	sv := new(SVDWorkspace).SingularValues(a)
	if !VecEqual(sv, []float64{5, 2}, 1e-12) {
		t.Fatalf("singular values = %v, want [5 2]", sv)
	}
}

func TestSingularValuesEmpty(t *testing.T) {
	if sv := new(SVDWorkspace).SingularValues(NewDense(3, 0)); len(sv) != 0 {
		t.Fatalf("expected no singular values, got %v", sv)
	}
}

func TestSVDPanicsForWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide matrix")
		}
	}()
	ComputeSVD(NewDense(2, 5))
}

// Property: the Frobenius norm equals the root-sum-square of singular values.
func TestQuickSVDFrobenius(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		m := n + r.Intn(8)
		a := randomDense(r, m, n)
		sv := new(SVDWorkspace).SingularValues(a)
		var ss float64
		for _, s := range sv {
			ss += s * s
		}
		frob := Norm2(a.RawData())
		return math.Abs(math.Sqrt(ss)-frob) < 1e-9*(1+frob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: singular values are invariant under orthogonal column mixing
// (multiplying on the right by a rotation).
func TestQuickSVDRotationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 4 + r.Intn(6)
		a := randomDense(r, m, 2)
		theta := r.Float64() * 2 * math.Pi
		c, s := math.Cos(theta), math.Sin(theta)
		rot := NewDenseFrom(2, 2, []float64{c, -s, s, c})
		sv1 := new(SVDWorkspace).SingularValues(a)
		sv2 := new(SVDWorkspace).SingularValues(mul(a, rot))
		return VecEqual(sv1, sv2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSVDWorkspaceMatchesComputeSVD: the singular-value-only kernel must
// reproduce ComputeSVD's values bitwise — it performs the same rotation
// sequence, only skipping the V accumulation and output assembly.
func TestSVDWorkspaceMatchesComputeSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ws SVDWorkspace
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(20)
		n := 1 + rng.Intn(m)
		a := NewDense(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		want := ComputeSVD(a).S
		got := ws.SingularValues(a)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d singular values, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: sv[%d] = %v, want %v (diff %g)", trial, i, got[i], want[i], got[i]-want[i])
			}
		}
	}
}

// TestSVDWorkspaceNearOrthogonal exercises the kernel on the cross-Gram
// shape the γ engine feeds it (near-orthogonal square matrices).
func TestSVDWorkspaceNearOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := NewDense(13, 13)
	for i := 0; i < 13; i++ {
		for j := 0; j < 13; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	q := ComputeQR(a).Q
	var ws SVDWorkspace
	want := ComputeSVD(q).S
	got := ws.SingularValues(q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sv[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
