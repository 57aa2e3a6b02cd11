package opf

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
)

// perColumnInputs is the dispatch LP's inequality block built the way the
// sparse path built it before it solved in blocks: one SolveInto for the
// load flow and one per distinct generator bus, each turned into a full
// length-L PTDF column, then gathered into one ranged row per limited
// branch: Aub, Bub and Lub.
func perColumnInputs(t *testing.T, e *DispatchEngine, x []float64) (aub *mat.Dense, bub, lub []float64) {
	t.Helper()
	n := e.n
	bf := grid.NewBFactorizerBackend(n, grid.SparseBackend)
	if err := bf.Reset(x); err != nil {
		t.Fatal(err)
	}
	s := n.SlackBus - 1
	nb1 := n.N() - 1
	column := func(rhs []float64) []float64 {
		sol := bf.SolveInto(make([]float64, nb1), rhs)
		out := make([]float64, n.L())
		for l, br := range n.Branches {
			y := 1 / x[l]
			ri, rj := reducedBusIndex(br.From-1, s), reducedBusIndex(br.To-1, s)
			switch {
			case ri >= 0 && rj >= 0:
				out[l] = y * (sol[ri] - sol[rj])
			case ri >= 0:
				out[l] = y * sol[ri]
			default:
				out[l] = -y * sol[rj]
			}
		}
		return out
	}
	loads := make([]float64, n.N())
	for i, b := range n.Buses {
		loads[i] = b.LoadMW
	}
	redLoad := make([]float64, nb1)
	reduceInto(redLoad, loads, s)
	f0 := column(redLoad)
	pg := make([][]float64, len(e.uCols))
	for i, c := range e.uCols {
		unit := make([]float64, nb1)
		unit[c] = 1
		pg[i] = column(unit)
	}
	nR := len(e.limRow)
	aub = mat.NewDense(nR, e.nG)
	bub = make([]float64, nR)
	lub = make([]float64, nR)
	for k, l := range e.limRow {
		for gi := 0; gi < e.nG; gi++ {
			v := 0.0
			if r := e.giCol[gi]; r >= 0 {
				v = pg[r][l]
			}
			aub.Set(k, gi, v)
		}
		bub[k] = n.Branches[l].LimitMW + f0[l]
		lub[k] = f0[l] - n.Branches[l].LimitMW
	}
	return aub, bub, lub
}

// TestBlockBuildMatchesPerColumn pins the dispatch LP's inputs on the
// sparse path to the per-column build, bitwise, on ieee57, ieee118 and
// ieee300 at seeded random D-FACTS settings: the blocked solve gives each
// column SolveInto's bits and the rows are formed by the same operations.
// It also pins one ranged row per limited branch: 179 on ieee118, 411 on
// ieee300.
func TestBlockBuildMatchesPerColumn(t *testing.T) {
	wantRows := map[string]int{"ieee118": 179, "ieee300": 411}
	for _, name := range []string{"ieee57", "ieee118", "ieee300"} {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewDispatchEngineBackend(n, grid.SparseBackend)
		if err != nil {
			t.Fatal(err)
		}
		sess := e.NewSession()
		rng := rand.New(rand.NewSource(18))
		lo, hi := n.DFACTSBounds()
		for trial := 0; trial < 4; trial++ {
			xd := make([]float64, len(lo))
			for j := range xd {
				xd[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			x := n.ExpandDFACTS(xd)
			prob, err := sess.BuildProblem(x)
			if err != nil {
				t.Fatal(err)
			}
			aub, bub, lub := perColumnInputs(t, e, x)
			if prob.Aub == nil || prob.Aub.Rows() != aub.Rows() || prob.Aub.Cols() != aub.Cols() {
				t.Fatalf("%s: Aub shape differs from the per-column build", name)
			}
			if want, ok := wantRows[name]; ok && aub.Rows() != want {
				t.Fatalf("%s: Aub has %d rows, want %d", name, aub.Rows(), want)
			}
			for i := 0; i < aub.Rows(); i++ {
				for j, v := range aub.RowView(i) {
					if got := prob.Aub.At(i, j); math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("%s trial %d: Aub(%d, %d) = %v, per-column %v", name, trial, i, j, got, v)
					}
				}
			}
			for i, v := range bub {
				if got := prob.Bub[i]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("%s trial %d: Bub[%d] = %v, per-column %v", name, trial, i, got, v)
				}
			}
			if len(prob.Lub) != len(lub) {
				t.Fatalf("%s: Lub has length %d, per-column %d", name, len(prob.Lub), len(lub))
			}
			for i, v := range lub {
				if got := prob.Lub[i]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("%s trial %d: Lub[%d] = %v, per-column %v", name, trial, i, got, v)
				}
			}
		}
	}
}

// TestSharedAnalysisConcurrentBuilds runs 8 goroutines, each holding a
// session on one shared ieee118 engine and one shared ieee300 engine, so
// every workspace's factorizer refactors against the engine's one B_r
// analysis at the same time (the race detector checks that the analysis
// is only read). Each build must equal, bitwise, the per-column build from
// a freshly analyzed factorizer at the same seeded D-FACTS setting.
func TestSharedAnalysisConcurrentBuilds(t *testing.T) {
	const workers, trials = 8, 2
	type ref struct {
		x        []float64
		aub      *mat.Dense
		bub, lub []float64
	}
	var engines []*DispatchEngine
	var refs [][][]ref // engine × worker × trial
	for ci, name := range []string{"ieee118", "ieee300"} {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewDispatchEngineBackend(n, grid.SparseBackend)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
		lo, hi := n.DFACTSBounds()
		perWorker := make([][]ref, workers)
		for w := range perWorker {
			rng := rand.New(rand.NewSource(int64(100*ci + w)))
			for trial := 0; trial < trials; trial++ {
				xd := make([]float64, len(lo))
				for j := range xd {
					xd[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
				}
				x := n.ExpandDFACTS(xd)
				aub, bub, lub := perColumnInputs(t, e, x)
				perWorker[w] = append(perWorker[w], ref{x, aub, bub, lub})
			}
		}
		refs = append(refs, perWorker)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ei, e := range engines {
				sess := e.NewSession()
				for trial, r := range refs[ei][w] {
					prob, err := sess.BuildProblem(r.x)
					if err != nil {
						t.Error(err)
						return
					}
					if !equalBits(prob.Aub, r.aub) || !equalBitsVec(prob.Bub, r.bub) || !equalBitsVec(prob.Lub, r.lub) {
						t.Errorf("%s worker %d trial %d: build differs from a fresh factorizer's",
							e.n.Name, w, trial)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func equalBits(a, b *mat.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		if !equalBitsVec(a.RowView(i), b.RowView(i)) {
			return false
		}
	}
	return true
}

func equalBitsVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
