package subspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridmtd/internal/mat"
)

func colSpan(vecs ...[]float64) *mat.Dense {
	m := mat.NewDense(len(vecs[0]), len(vecs))
	for j, v := range vecs {
		m.SetCol(j, v)
	}
	return m
}

func TestIdenticalSubspaces(t *testing.T) {
	a := colSpan([]float64{1, 0, 0}, []float64{0, 1, 0})
	b := colSpan([]float64{1, 1, 0}, []float64{1, -1, 0}) // same plane
	angles := PrincipalAngles(a, b)
	if len(angles) != 2 {
		t.Fatalf("got %d angles, want 2", len(angles))
	}
	for _, ang := range angles {
		if ang > 1e-7 {
			t.Errorf("angle %v, want 0 for identical subspaces", ang)
		}
	}
	if g := Gamma(a, b); g > 1e-7 {
		t.Errorf("Gamma = %v, want 0", g)
	}
}

func TestOrthogonalSubspaces(t *testing.T) {
	a := colSpan([]float64{1, 0, 0, 0})
	b := colSpan([]float64{0, 1, 0, 0})
	if g := PrincipalAngles(a, b)[0]; math.Abs(g-math.Pi/2) > 1e-12 {
		t.Errorf("angle = %v, want pi/2", g)
	}
}

func TestKnownAngle(t *testing.T) {
	// A line at 30 degrees from the x-axis.
	theta := math.Pi / 6
	a := colSpan([]float64{1, 0})
	b := colSpan([]float64{math.Cos(theta), math.Sin(theta)})
	if g := PrincipalAngles(a, b)[0]; math.Abs(g-theta) > 1e-12 {
		t.Errorf("angle = %v, want %v", g, theta)
	}
}

func TestPartiallySharedSubspace(t *testing.T) {
	// a = span{e1, e2}, b = span{e1, e3}: smallest angle 0 (shared e1),
	// largest pi/2 (e2 vs e3).
	a := colSpan([]float64{1, 0, 0}, []float64{0, 1, 0})
	b := colSpan([]float64{1, 0, 0}, []float64{0, 0, 1})
	if s := PrincipalAngles(a, b)[0]; s > 1e-7 {
		t.Errorf("smallest = %v, want 0", s)
	}
	if l := LargestAngle(a, b); math.Abs(l-math.Pi/2) > 1e-7 {
		t.Errorf("largest = %v, want pi/2", l)
	}
}

func TestScalingInvariance(t *testing.T) {
	// Col((1+eta)H) == Col(H): the paper's "perfectly aligned" case.
	rng := rand.New(rand.NewSource(3))
	h := mat.NewDense(10, 4)
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			h.Set(i, j, rng.NormFloat64())
		}
	}
	scaled := mat.NewDenseFrom(h.Rows(), h.Cols(), mat.ScaleVec(1.2, h.RawData()))
	if g := Gamma(h, scaled); g > 1e-7 {
		t.Errorf("Gamma(H, 1.2H) = %v, want 0", g)
	}
}

func TestEmptySubspace(t *testing.T) {
	zero := mat.NewDense(4, 2) // rank 0
	full := colSpan([]float64{1, 0, 0, 0})
	if got := PrincipalAngles(zero, full); got != nil {
		t.Errorf("angles for empty subspace = %v, want nil", got)
	}
	if LargestAngle(zero, full) != 0 {
		t.Error("largest angle of an empty subspace should be 0")
	}
}

func TestRankDeficientInputs(t *testing.T) {
	// Duplicated columns must not distort angles.
	a := colSpan([]float64{1, 0, 0}, []float64{2, 0, 0})
	b := colSpan([]float64{0, 1, 0})
	if g := PrincipalAngles(a, b)[0]; math.Abs(g-math.Pi/2) > 1e-7 {
		t.Errorf("angle = %v, want pi/2", g)
	}
}

// Property: angles are symmetric in their arguments and lie in [0, pi/2].
func TestQuickSymmetryAndRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 4 + r.Intn(8)
		ka := 1 + r.Intn(3)
		kb := 1 + r.Intn(3)
		a := mat.NewDense(m, ka)
		b := mat.NewDense(m, kb)
		for i := 0; i < m; i++ {
			for j := 0; j < ka; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			for j := 0; j < kb; j++ {
				b.Set(i, j, r.NormFloat64())
			}
		}
		g1 := PrincipalAngles(a, b)[0]
		g2 := PrincipalAngles(b, a)[0]
		l1 := LargestAngle(a, b)
		l2 := LargestAngle(b, a)
		inRange := g1 >= 0 && l1 <= math.Pi/2+1e-12 && g1 <= l1+1e-12
		// Compare cosines: acos amplifies roundoff near angle 0, so angle
		// differences of ~1e-8 are expected there even for exact inputs.
		cosOK := math.Abs(math.Cos(g1)-math.Cos(g2)) < 1e-10 &&
			math.Abs(math.Cos(l1)-math.Cos(l2)) < 1e-10
		return inRange && cosOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: rotating a subspace by a known small rotation in a shared plane
// produces exactly that principal angle.
func TestQuickKnownRotation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		theta := r.Float64() * math.Pi / 2
		a := colSpan([]float64{1, 0, 0})
		b := colSpan([]float64{math.Cos(theta), math.Sin(theta), 0})
		return math.Abs(PrincipalAngles(a, b)[0]-theta) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBasisEngineMatchesPrincipalAngles: the cached Basis/Workspace path
// must reproduce the matrix-level API bitwise, including when the
// workspace is reused across calls with different-rank inputs.
func TestBasisEngineMatchesPrincipalAngles(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var ws Workspace
	for trial := 0; trial < 25; trial++ {
		m := 5 + rng.Intn(30)
		ka := 1 + rng.Intn(m)
		kb := 1 + rng.Intn(m)
		a := randomMatrix(rng, m, ka)
		b := randomMatrix(rng, m, kb)

		want := PrincipalAngles(a, b)
		qa := ComputeBasis(a, 0)
		qb := ws.BasisT(mat.TransposeInto(mat.NewDense(b.Cols(), b.Rows()), b), 0)
		got := ws.PrincipalAnglesBases(qa, qb)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d angles, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: angle[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
		if len(want) > 0 {
			if g := ws.GammaBases(qa, qb); g != Gamma(a, b) {
				t.Fatalf("trial %d: GammaBases = %v, Gamma = %v", trial, g, Gamma(a, b))
			}
		}
	}
}

func randomMatrix(rng *rand.Rand, m, n int) *mat.Dense {
	a := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}
