package grid

import (
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/mat"
)

// allCases builds every registered case.
func allCases(t *testing.T) []*Network {
	t.Helper()
	var nets []*Network
	for _, name := range CaseNames() {
		n, err := CaseByName(name)
		if err != nil {
			t.Fatalf("CaseByName(%q): %v", name, err)
		}
		nets = append(nets, n)
	}
	return nets
}

// perturbedReactances returns the case reactances with every D-FACTS branch
// moved to a deterministic interior point of its range.
func perturbedReactances(n *Network, rng *rand.Rand) []float64 {
	x := n.Reactances()
	for _, i := range n.DFACTSIndices() {
		lo, hi := n.Branches[i].XMin, n.Branches[i].XMax
		x[i] = lo + (hi-lo)*rng.Float64()
	}
	return x
}

// TestDenseSparseSolveAgree is the backend-agreement property test of the
// case registry: for every registered case and several reactance settings,
// the dense LU and sparse Cholesky factorizations must solve B_r·y = b to
// within 1e-10 of each other.
func TestDenseSparseSolveAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range allCases(t) {
		dense := NewBFactorizerBackend(n, DenseBackend)
		sparse := NewBFactorizerBackend(n, SparseBackend)
		for trial := 0; trial < 3; trial++ {
			x := n.Reactances()
			if trial > 0 {
				x = perturbedReactances(n, rng)
			}
			if err := dense.Reset(x); err != nil {
				t.Fatalf("%s: dense Reset: %v", n.Name, err)
			}
			if err := sparse.Reset(x); err != nil {
				t.Fatalf("%s: sparse Reset: %v", n.Name, err)
			}
			b := make([]float64, n.N()-1)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			yd := dense.SolveInto(make([]float64, len(b)), b)
			ys := sparse.SolveInto(make([]float64, len(b)), b)
			for i := range yd {
				if diff := math.Abs(yd[i] - ys[i]); diff > 1e-10*(1+math.Abs(yd[i])) {
					t.Fatalf("%s trial %d: solve mismatch at %d: dense %g sparse %g", n.Name, trial, i, yd[i], ys[i])
				}
			}
		}
	}
}

// TestDenseSparsePTDFAgree checks the PTDF construction through both
// backends to 1e-10 on every registered case.
func TestDenseSparsePTDFAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range allCases(t) {
		dense := NewBFactorizerBackend(n, DenseBackend)
		sparse := NewBFactorizerBackend(n, SparseBackend)
		for trial := 0; trial < 2; trial++ {
			x := n.Reactances()
			if trial > 0 {
				x = perturbedReactances(n, rng)
			}
			pd := mat.NewDense(n.L(), n.N()-1)
			ps := mat.NewDense(n.L(), n.N()-1)
			if err := dense.Reset(x); err != nil {
				t.Fatal(err)
			}
			if err := dense.PTDFInto(pd); err != nil {
				t.Fatal(err)
			}
			if err := sparse.Reset(x); err != nil {
				t.Fatal(err)
			}
			if err := sparse.PTDFInto(ps); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < n.L(); l++ {
				rd, rs := pd.RowView(l), ps.RowView(l)
				for j := range rd {
					if diff := math.Abs(rd[j] - rs[j]); diff > 1e-10*(1+math.Abs(rd[j])) {
						t.Fatalf("%s trial %d: PTDF mismatch at (%d,%d): dense %g sparse %g", n.Name, trial, l, j, rd[j], rs[j])
					}
				}
			}
		}
	}
}

// TestSparsePTDFColsAgree checks the blocked fast path on every case: a
// block of unit columns plus one random right-hand side must give each
// column the bits SolveInto gives it, the PTDF columns built from the
// block must match the full sparse PTDF to factorization roundoff (the
// two read symmetric entries of the same inverse), and the dense backend
// must not advertise the interface — its full build is a bitwise
// historical contract.
func TestSparsePTDFColsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range allCases(t) {
		if _, ok := NewBFactorizerBackend(n, DenseBackend).(BlockSolver); ok {
			t.Fatalf("%s: dense factorizer claims BlockSolver", n.Name)
		}
		sparse := NewBFactorizerBackend(n, SparseBackend)
		bs, ok := sparse.(BlockSolver)
		if !ok {
			t.Fatalf("%s: sparse factorizer does not implement BlockSolver", n.Name)
		}
		x := perturbedReactances(n, rng)
		if err := sparse.Reset(x); err != nil {
			t.Fatal(err)
		}
		full := mat.NewDense(n.L(), n.N()-1)
		if err := sparse.PTDFInto(full); err != nil {
			t.Fatal(err)
		}
		nb1 := n.N() - 1
		cols := []int{0, nb1 / 2, nb1 - 1}
		m := len(cols) + 1
		rhs := make([][]float64, m)
		blk := make([]float64, nb1*m)
		for j := range rhs {
			rhs[j] = make([]float64, nb1)
			if j < len(cols) {
				rhs[j][cols[j]] = 1
			} else {
				for i := range rhs[j] {
					rhs[j][i] = rng.NormFloat64()
				}
			}
			for i, v := range rhs[j] {
				blk[i*m+j] = v
			}
		}
		if err := bs.SolveRowsInto(blk, m, make([]float64, len(blk))); err != nil {
			t.Fatal(err)
		}
		one := make([]float64, nb1)
		for j := range rhs {
			sparse.SolveInto(one, rhs[j])
			for i, v := range one {
				if math.Float64bits(blk[i*m+j]) != math.Float64bits(v) {
					t.Fatalf("%s: column %d entry %d: block %v, SolveInto %v", n.Name, j, i, blk[i*m+j], v)
				}
			}
		}
		s := n.SlackBus - 1
		for j, c := range cols {
			for l, br := range n.Branches {
				var got float64
				if ri := reducedColIndex(br.From-1, s); ri >= 0 {
					got += blk[ri*m+j]
				}
				if rj := reducedColIndex(br.To-1, s); rj >= 0 {
					got -= blk[rj*m+j]
				}
				got /= x[l]
				want := full.At(l, c)
				if diff := math.Abs(got - want); diff > 1e-10*(1+math.Abs(want)) {
					t.Fatalf("%s: PTDF column %d branch %d: full %g block %g", n.Name, c, l, want, got)
				}
			}
		}
	}
}

// TestDensePTDFMatchesNetworkPTDF pins the dense factorizer to the public
// PTDF construction (which it must reproduce bitwise on sub-threshold
// cases).
func TestDensePTDFMatchesNetworkPTDF(t *testing.T) {
	for _, name := range []string{"case4gs", "ieee14", "ieee30"} {
		n, err := CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		x := n.Reactances()
		want, err := n.PTDF(x)
		if err != nil {
			t.Fatal(err)
		}
		f := NewBFactorizerBackend(n, DenseBackend)
		if err := f.Reset(x); err != nil {
			t.Fatal(err)
		}
		got := mat.NewDense(n.L(), n.N()-1)
		if err := f.PTDFInto(got); err != nil {
			t.Fatal(err)
		}
		if !mat.VecEqual(got.RawData(), want.RawData(), 0) {
			t.Fatalf("%s: dense factorizer PTDF differs from Network.PTDF", name)
		}
	}
}

// TestAutoBackendSelection pins the size-based backend choice: the paper's
// own cases stay dense (preserving bitwise reproducibility), the new large
// cases go sparse.
func TestAutoBackendSelection(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Backend
	}{
		{"case4gs", DenseBackend},
		{"ieee14", DenseBackend},
		{"ieee30", DenseBackend},
		{"ieee57", SparseBackend},
		{"ieee118", SparseBackend},
	} {
		n, err := CaseByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := AnalyzeB(n, AutoBackend).Backend(); got != tc.want {
			t.Errorf("%s: auto backend = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// qrRank returns the numerical column rank of h as the unpivoted QR sees
// it: a column's residual after projection onto the columns before it is
// |R_jj|, so it counts the columns whose residual does not vanish.
func qrRank(h *mat.Dense) int {
	r := mat.ComputeQR(h).R
	var rmax float64
	for j := 0; j < r.Cols(); j++ {
		rmax = math.Max(rmax, math.Abs(r.At(j, j)))
	}
	got := 0
	for j := 0; j < r.Cols(); j++ {
		if math.Abs(r.At(j, j)) > 1e-12*rmax {
			got++
		}
	}
	return got
}

// TestMeasurementMatrixFullRankAllCases checks the estimator's full-rank
// assumption on every registered case: the slack-reduced H must have rank
// N-1 at nominal reactances.
func TestMeasurementMatrixFullRankAllCases(t *testing.T) {
	for _, n := range allCases(t) {
		got := qrRank(n.MeasurementMatrix(n.Reactances()))
		if got != n.N()-1 {
			t.Errorf("%s: rank(H) = %d, want %d", n.Name, got, n.N()-1)
		}
	}
}

// TestSparseFactorizerRejectsIslanded mirrors the Validate guard at the
// numeric level: factoring an islanded network's susceptance matrix must
// fail loudly, not return garbage.
func TestSparseFactorizerRejectsIslanded(t *testing.T) {
	n := &Network{
		Name:     "islanded",
		BaseMVA:  100,
		SlackBus: 1,
		Buses:    []Bus{{Index: 1}, {Index: 2}, {Index: 3}, {Index: 4}},
		Branches: []Branch{
			{From: 1, To: 2, X: 0.1, LimitMW: 10, XMin: 0.1, XMax: 0.1},
			{From: 3, To: 4, X: 0.1, LimitMW: 10, XMin: 0.1, XMax: 0.1},
		},
	}
	f := NewBFactorizerBackend(n, SparseBackend)
	if err := f.Reset(n.Reactances()); err == nil {
		t.Fatal("expected sparse factorization of an islanded network to fail")
	}
	// (The dense LU keeps its historical exact-zero pivot test for bitwise
	// compatibility, so rounding can let an islanded matrix through there;
	// Validate is the structural guard on that path.)
}
