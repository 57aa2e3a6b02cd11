package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridmtd/internal/mat"
)

func TestBMatrixAgainstIncidenceProduct(t *testing.T) {
	// The fast assembly must agree with the definition B = A·D·Aᵀ.
	for _, n := range []*Network{Case4GS(), CaseIEEE14(), CaseIEEE30()} {
		x := n.Reactances()
		direct := n.BMatrix(x)
		// A is the N×L incidence matrix (+1 at a branch's from bus, −1 at
		// its to bus) and D = diag(1/x).
		a := mat.NewDense(n.N(), n.L())
		ad := mat.NewDense(n.N(), n.L())
		for l, br := range n.Branches {
			a.Set(br.From-1, l, 1)
			a.Set(br.To-1, l, -1)
			ad.Set(br.From-1, l, 1/x[l])
			ad.Set(br.To-1, l, -1/x[l])
		}
		viaDef := mat.MulInto(mat.NewDense(n.N(), n.N()), ad, a.T())
		if !mat.VecEqual(direct.RawData(), viaDef.RawData(), 1e-9) {
			t.Errorf("%s: BMatrix disagrees with A·D·Aᵀ", n.Name)
		}
	}
}

func TestBMatrixRowSumsZero(t *testing.T) {
	n := CaseIEEE14()
	b := n.BMatrix(n.Reactances())
	for i := 0; i < b.Rows(); i++ {
		var s float64
		for j := 0; j < b.Cols(); j++ {
			s += b.At(i, j)
		}
		if math.Abs(s) > 1e-9 {
			t.Errorf("row %d sums to %v, want 0", i, s)
		}
	}
}

func TestReducedBInvertible(t *testing.T) {
	for _, n := range []*Network{Case4GS(), CaseIEEE14(), CaseIEEE30()} {
		rb := n.ReducedB(n.Reactances())
		if rb.Rows() != n.N()-1 {
			t.Fatalf("%s: reduced B is %dx%d", n.Name, rb.Rows(), rb.Cols())
		}
		if _, err := mat.ComputeLU(rb); err != nil {
			t.Errorf("%s: reduced B is singular: %v", n.Name, err)
		}
	}
}

func TestMeasurementMatrixShapeAndRank(t *testing.T) {
	for _, n := range []*Network{Case4GS(), CaseIEEE14(), CaseIEEE30()} {
		h := n.MeasurementMatrix(n.Reactances())
		if h.Rows() != n.M() || h.Cols() != n.N()-1 {
			t.Fatalf("%s: H is %dx%d, want %dx%d", n.Name, h.Rows(), h.Cols(), n.M(), n.N()-1)
		}
		if r := qrRank(h); r != n.N()-1 {
			t.Errorf("%s: rank(H) = %d, want %d", n.Name, r, n.N()-1)
		}
	}
}

func TestMeasurementMatrixConsistentWithFlows(t *testing.T) {
	// H must map angles to [p; f; -f]: verify against a manual DC solution.
	n := Case4GS()
	x := n.Reactances()
	rb := n.ReducedB(x)
	pMW := n.InjectionsMW([]float64{350, 150})
	pPU := n.ReduceVec(mat.ScaleVec(1/n.BaseMVA, pMW))
	lu, err := mat.ComputeLU(rb)
	if err != nil {
		t.Fatal(err)
	}
	thetaRed := lu.Solve(pPU)
	z := mat.MulVec(n.MeasurementMatrix(x), thetaRed)
	// First N entries are injections (per-unit).
	for i := 0; i < n.N(); i++ {
		if math.Abs(z[i]-pMW[i]/n.BaseMVA) > 1e-9 {
			t.Errorf("injection %d: z = %v, want %v", i, z[i], pMW[i]/n.BaseMVA)
		}
	}
	// Forward and reverse flow blocks must be negatives of each other.
	for l := 0; l < n.L(); l++ {
		if math.Abs(z[n.N()+l]+z[n.N()+n.L()+l]) > 1e-12 {
			t.Errorf("flow block mismatch at branch %d", l)
		}
	}
}

func TestPTDFReproducesFlows(t *testing.T) {
	// PTDF · p must equal the flows from the angle-based solution.
	for _, n := range []*Network{Case4GS(), CaseIEEE14()} {
		x := n.Reactances()
		ptdf, err := n.PTDF(x)
		if err != nil {
			t.Fatal(err)
		}
		// Random balanced injection.
		rng := rand.New(rand.NewSource(42))
		p := make([]float64, n.N())
		var sum float64
		for i := 0; i < n.N()-1; i++ {
			p[i] = rng.NormFloat64()
			sum += p[i]
		}
		p[n.N()-1] = -sum

		red := n.ReduceVec(p)
		flowsPTDF := mat.MulVec(ptdf, red)

		lu, err := mat.ComputeLU(n.ReducedB(x))
		if err != nil {
			t.Fatal(err)
		}
		thetaRed := lu.Solve(red)
		theta := n.ExpandVec(thetaRed, 0)
		for l, br := range n.Branches {
			want := (theta[br.From-1] - theta[br.To-1]) / x[l]
			if math.Abs(flowsPTDF[l]-want) > 1e-9 {
				t.Errorf("%s: branch %d PTDF flow %v, want %v", n.Name, l, flowsPTDF[l], want)
			}
		}
	}
}

func TestReduceExpandVec(t *testing.T) {
	n := CaseIEEE14()
	v := make([]float64, n.N())
	for i := range v {
		v[i] = float64(i + 1)
	}
	red := n.ReduceVec(v)
	if len(red) != n.N()-1 {
		t.Fatalf("reduced length %d", len(red))
	}
	back := n.ExpandVec(red, v[n.SlackBus-1])
	for i := range v {
		if back[i] != v[i] {
			t.Fatalf("round trip failed at %d: %v != %v", i, back[i], v[i])
		}
	}
}

func TestReduceVecNonFirstSlack(t *testing.T) {
	n := validNet()
	n.SlackBus = 2
	red := n.ReduceVec([]float64{10, 20})
	if len(red) != 1 || red[0] != 10 {
		t.Fatalf("ReduceVec = %v, want [10]", red)
	}
	back := n.ExpandVec(red, 99)
	if back[0] != 10 || back[1] != 99 {
		t.Fatalf("ExpandVec = %v", back)
	}
}

// Property: for random reactance settings within D-FACTS bounds, H keeps
// full column rank and B stays symmetric.
func TestQuickMatrixInvariants(t *testing.T) {
	n := CaseIEEE14()
	lo, hi := n.DFACTSBounds()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		x := n.ExpandDFACTS(xd)
		b := n.BMatrix(x)
		for i := 0; i < b.Rows(); i++ {
			for j := i + 1; j < b.Cols(); j++ {
				if math.Abs(b.At(i, j)-b.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		h := n.MeasurementMatrix(x)
		return qrRank(h) == n.N()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMeasurementMatrixIntoMatches: the buffered builders must reproduce
// MeasurementMatrix bitwise (the injection block is accumulated per branch
// in the same order BMatrix sums it).
func TestMeasurementMatrixIntoMatches(t *testing.T) {
	for _, n := range []*Network{Case4GS(), CaseIEEE14(), CaseIEEE30()} {
		x := n.Reactances()
		for _, i := range n.DFACTSIndices() {
			x[i] = n.Branches[i].XMin // push devices off nominal
		}
		want := n.MeasurementMatrix(x)

		got := mat.NewDense(n.M(), n.N()-1)
		// Poison the buffer to catch missing zeroing.
		for i := 0; i < got.Rows(); i++ {
			for j := 0; j < got.Cols(); j++ {
				got.Set(i, j, 999)
			}
		}
		n.MeasurementMatrixInto(x, got)
		for i := 0; i < want.Rows(); i++ {
			for j := 0; j < want.Cols(); j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("%s: H[%d][%d] = %v, want %v", n.Name, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}

		ht := mat.NewDense(n.N()-1, n.M())
		n.MeasurementMatrixTInto(x, ht)
		for i := 0; i < want.Rows(); i++ {
			for j := 0; j < want.Cols(); j++ {
				if ht.At(j, i) != want.At(i, j) {
					t.Fatalf("%s: Hᵀ[%d][%d] = %v, want %v", n.Name, j, i, ht.At(j, i), want.At(i, j))
				}
			}
		}
	}
}

// TestReducedBIntoMatches checks the buffered reduced susceptance builder.
func TestReducedBIntoMatches(t *testing.T) {
	for _, n := range []*Network{Case4GS(), CaseIEEE14(), CaseIEEE30()} {
		x := n.Reactances()
		want := n.ReducedB(x)
		got := mat.NewDense(n.N()-1, n.N()-1)
		got.Set(0, 0, 123) // poison
		n.ReducedBInto(x, got)
		if !mat.VecEqual(want.RawData(), got.RawData(), 0) {
			t.Fatalf("%s: ReducedBInto differs from ReducedB", n.Name)
		}
	}
}

// TestExpandDFACTSInto checks the buffered expansion against the
// allocating form and the device ordering.
func TestExpandDFACTSInto(t *testing.T) {
	n := CaseIEEE14()
	idx := n.DFACTSIndices()
	xd := make([]float64, len(idx))
	for k := range xd {
		xd[k] = 0.01 * float64(k+1)
	}
	want := n.ExpandDFACTS(xd)
	dst := make([]float64, n.L())
	n.ExpandDFACTSInto(xd, dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("x[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// TestGammaReducedPreservesInnerProducts checks the exactness argument
// behind MeasurementMatrixTGammaInto: the Gram matrix of the reduced
// columns [p; √2·f] must equal HᵀH, because principal angles (γ) depend on
// the column sets only through these inner products.
func TestGammaReducedPreservesInnerProducts(t *testing.T) {
	n := CaseIEEE14()
	x := n.Reactances()
	h := n.MeasurementMatrix(x)
	red := mat.NewDense(n.N()-1, n.GammaAmbient())
	n.MeasurementMatrixTGammaInto(x, red)
	states := n.N() - 1
	for a := 0; a < states; a++ {
		for b := a; b < states; b++ {
			var full float64
			for i := 0; i < n.M(); i++ {
				full += h.At(i, a) * h.At(i, b)
			}
			got := mat.Dot(red.RowView(a), red.RowView(b))
			if math.Abs(got-full) > 1e-12*(1+math.Abs(full)) {
				t.Fatalf("gram(%d,%d): reduced %.15g vs full %.15g", a, b, got, full)
			}
		}
	}
}
