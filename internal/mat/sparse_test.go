package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSPDTriplets builds a random symmetric diagonally dominant sparse
// matrix (hence SPD) of order n as triplets, mimicking the structure of a
// susceptance assembly: off-diagonal pairs plus accumulated diagonals.
func randomSPDTriplets(rng *rand.Rand, n, edges int) (is, js []int, vs []float64) {
	diag := make([]float64, n)
	for e := 0; e < edges; e++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		w := 0.1 + rng.Float64()
		is = append(is, i, j)
		js = append(js, j, i)
		vs = append(vs, -w, -w)
		diag[i] += w
		diag[j] += w
	}
	for i := 0; i < n; i++ {
		is = append(is, i)
		js = append(js, i)
		vs = append(vs, diag[i]+0.5+rng.Float64())
	}
	return is, js, vs
}

// toDense materializes m as a dense matrix.
func toDense(m *CSC) *Dense {
	out := NewDense(m.rows, m.cols)
	for j := 0; j < m.cols; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			out.Set(m.rowIdx[p], j, m.values[p])
		}
	}
	return out
}

func TestCSCFromTripletsSumsDuplicates(t *testing.T) {
	m := NewCSCFromTriplets(2, 2,
		[]int{0, 0, 1, 0}, []int{0, 1, 1, 0}, []float64{1, 2, 3, 4})
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3 (duplicates summed)", m.NNZ())
	}
	d := toDense(m)
	want := NewDenseFrom(2, 2, []float64{5, 2, 0, 3})
	if !equal(d, want, 0) {
		t.Fatalf("dense mismatch:\n%v\nwant:\n%v", d, want)
	}
	if p := m.Pos(0, 0); p < 0 || m.Values()[p] != 5 {
		t.Fatalf("Pos(0,0) = %d", p)
	}
	if p := m.Pos(1, 0); p != -1 {
		t.Fatalf("Pos(1,0) = %d, want -1", p)
	}
}

func TestMinDegreeOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		adj := make([][]int, n)
		for e := 0; e < 3*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			adj[i] = append(adj[i], j)
		}
		p := MinDegreeOrder(n, adj)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestSparseCholMatchesDenseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(60)
		is, js, vs := randomSPDTriplets(rng, n, 3*n)
		a := NewCSCFromTriplets(n, n, is, js, vs)
		chol, err := NewSparseChol(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := chol.SolveInto(make([]float64, n), b)
		want, err := solve(toDense(a), b)
		if err != nil {
			t.Fatalf("dense solve: %v", err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
		// Residual check directly against the sparse operator.
		r := a.MulVecInto(make([]float64, n), got)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9*(1+math.Abs(b[i])) {
				t.Fatalf("trial %d: residual %g at %d", trial, r[i]-b[i], i)
			}
		}
	}
}

func TestSparseCholRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	is, js, vs := randomSPDTriplets(rng, n, 3*n)
	a := NewCSCFromTriplets(n, n, is, js, vs)
	chol, err := NewSparseChol(a)
	if err != nil {
		t.Fatal(err)
	}
	// Same pattern, new values: scale the triplets and rebuild.
	for i := range vs {
		vs[i] *= 2.5
	}
	a2 := NewCSCFromTriplets(n, n, is, js, vs)
	if err := chol.Refactor(a2); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := chol.SolveInto(make([]float64, n), b)
	want, err := solve(toDense(a2), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSparseCholRejectsSingular(t *testing.T) {
	// A graph Laplacian (no grounding diagonal) is singular: the all-ones
	// vector is in its null space — the sparse analogue of an islanded or
	// slack-less susceptance matrix.
	n := 5
	var is, js []int
	var vs []float64
	for i := 0; i < n-1; i++ {
		is = append(is, i, i+1, i, i+1)
		js = append(js, i+1, i, i, i+1)
		vs = append(vs, -1, -1, 1, 1)
	}
	a := NewCSCFromTriplets(n, n, is, js, vs)
	if _, err := NewSparseChol(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSparseCholSolveAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 12
	is, js, vs := randomSPDTriplets(rng, n, 2*n)
	a := NewCSCFromTriplets(n, n, is, js, vs)
	chol, err := NewSparseChol(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := chol.SolveInto(make([]float64, n), b)
	got := append([]float64(nil), b...)
	chol.SolveInto(got, got) // dst aliases b
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestSharedAnalysisMatchesFreshFactor pins the split between symbolic
// analysis and numeric factor: a factorization sharing another one's
// analysis and refactored at new values solves with the bits of a
// factorization analyzed from scratch at those values, one right-hand
// side at a time and in blocks.
func TestSharedAnalysisMatchesFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(80)
		is, js, vs := randomSPDTriplets(rng, n, 3*n)
		ref, err := NewSparseChol(NewCSCFromTriplets(n, n, is, js, vs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range vs {
			vs[i] *= 0.5 + rng.Float64()
		}
		// Keep the scaled matrix diagonally dominant.
		for k := range vs {
			if is[k] == js[k] {
				vs[k] += 4 * float64(n)
			}
		}
		a := NewCSCFromTriplets(n, n, is, js, vs)
		shared := ref.CholSymbolic.NewFactor()
		if err := shared.Refactor(a); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSparseChol(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := shared.SolveInto(make([]float64, n), b)
		want := fresh.SolveInto(make([]float64, n), b)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: shared-analysis solve x[%d] = %v, fresh %v", trial, i, got[i], want[i])
			}
		}
		const m = 3
		x := make([]float64, n*m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		xs := append([]float64(nil), x...)
		shared.SolveRowsInto(xs, m, make([]float64, n*m))
		fresh.SolveRowsInto(x, m, make([]float64, n*m))
		for i := range x {
			if math.Float64bits(xs[i]) != math.Float64bits(x[i]) {
				t.Fatalf("trial %d: shared-analysis block solve entry %d = %v, fresh %v", trial, i, xs[i], x[i])
			}
		}
	}
}

// TestSolveRowsMatchesSolveInto pins the block solve's contract with a
// block laid out like the dispatch LP's, a dense column beside unit
// columns: every column gets the bits SolveInto gives it alone.
func TestSolveRowsMatchesSolveInto(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(80)
		is, js, vs := randomSPDTriplets(rng, n, 3*n)
		chol, err := NewSparseChol(NewCSCFromTriplets(n, n, is, js, vs))
		if err != nil {
			t.Fatal(err)
		}
		var units []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				units = append(units, i)
			}
		}
		m := len(units) + 1
		dense := make([]float64, n)
		for i := range dense {
			dense[i] = rng.NormFloat64()
		}
		x := make([]float64, n*m)
		for i, v := range dense {
			x[i*m] = v
		}
		for j, c := range units {
			x[c*m+1+j] = 1
		}
		chol.SolveRowsInto(x, m, make([]float64, n*m))
		for j := 0; j < m; j++ {
			rhs := dense
			if j > 0 {
				rhs = make([]float64, n)
				rhs[units[j-1]] = 1
			}
			want := chol.SolveInto(make([]float64, n), rhs)
			for i, w := range want {
				if got := x[i*m+j]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("trial %d: column %d entry %d = %v, SolveInto %v", trial, j, i, got, w)
				}
			}
		}
	}
}
