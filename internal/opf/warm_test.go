package opf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/metrics"
)

// warmVsColdCase drives one warm RevisedSolver through count
// perturbed-reactance dispatch LPs of a registered case, each started from
// the basis the previous solve ended on, and cross-checks every objective
// against a fresh flat-tableau solve of the identical problem. This is the warm-start correctness property the sparse path
// relies on: 1e-9 objective agreement across a realistic LP walk.
func warmVsColdCase(t *testing.T, caseName string, count int, step float64) lp.RevisedStats {
	t.Helper()
	n, err := grid.CaseByName(caseName)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	// Two workspaces over the same engine: one for the warm walk, one to
	// rebuild each problem for the reference solve (Problem aliases the
	// workspace buffers, so the warm and cold solves each need their own).
	warmW := eng.pool.New().(*dispatchWorkspace)
	coldW := eng.pool.New().(*dispatchWorkspace)
	coldSolver := lp.NewSolver()

	rng := rand.New(rand.NewSource(42))
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.5 * (lo[i] + hi[i])
	}
	checked := 0
	for trial := 0; trial < count; trial++ {
		// Random walk inside the D-FACTS box — the Nelder-Mead access
		// pattern: mostly small steps around the previous candidate.
		for i := range xd {
			xd[i] += step * (hi[i] - lo[i]) * (2*rng.Float64() - 1)
			if xd[i] < lo[i] {
				xd[i] = lo[i]
			}
			if xd[i] > hi[i] {
				xd[i] = hi[i]
			}
		}
		x := n.ExpandDFACTS(xd)

		warmProb, err := eng.buildProblem(warmW, x)
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		warmSol, warmErr := warmW.rsolver.Solve(warmProb, warmW.rsolver.CaptureBasis())

		coldProb, err := eng.buildProblem(coldW, x)
		if err != nil {
			t.Fatalf("trial %d: build (cold): %v", trial, err)
		}
		coldSol, coldErr := coldSolver.Solve(coldProb)

		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("trial %d: warm err %v, cold err %v", trial, warmErr, coldErr)
		}
		if coldErr != nil {
			if !errors.Is(warmErr, lp.ErrInfeasible) || !errors.Is(coldErr, lp.ErrInfeasible) {
				t.Fatalf("trial %d: unexpected errors warm=%v cold=%v", trial, warmErr, coldErr)
			}
			continue
		}
		checked++
		scale := 1 + math.Abs(coldSol.Objective)
		if diff := math.Abs(warmSol.Objective - coldSol.Objective); diff > 1e-9*scale {
			t.Fatalf("trial %d: warm objective %.15g vs cold %.15g (diff %.3g)",
				trial, warmSol.Objective, coldSol.Objective, diff)
		}
	}
	st := warmW.rsolver.Stats()
	if st.WarmSolves == 0 {
		t.Fatalf("%s: the warm path was never taken: %+v", caseName, st)
	}
	t.Logf("%s: %d/%d feasible candidates checked; stats %+v", caseName, checked, count, st)
	return st
}

// TestWarmColdAgreeIEEE57 cross-checks 200 perturbed-reactance dispatch
// LPs on the 57-bus case.
func TestWarmColdAgreeIEEE57(t *testing.T) {
	warmVsColdCase(t, "ieee57", 200, 0.05)
}

// TestWarmColdAgreeIEEE118 cross-checks 200 perturbed-reactance dispatch
// LPs on the 118-bus case, and requires that the walk exercised the
// dual-simplex recovery (perturbations that strand the previous basis
// primal-infeasible).
func TestWarmColdAgreeIEEE118(t *testing.T) {
	if testing.Short() {
		t.Skip("200 cold 118-bus tableau solves take seconds")
	}
	st := warmVsColdCase(t, "ieee118", 200, 0.05)
	if st.DualPivots == 0 {
		t.Fatalf("118-bus walk never exercised dual-simplex recovery: %+v", st)
	}
}

// TestWarmRecoveryAfterCornerJump jumps the candidate from one box corner
// to the opposite one — the largest perturbation the hardware allows, which
// makes the previous optimal basis primal infeasible — and checks the warm
// solve still matches a cold solve.
func TestWarmRecoveryAfterCornerJump(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession()
	lo, hi := n.DFACTSBounds()
	point := func(frac float64) []float64 {
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = lo[i] + frac*(hi[i]-lo[i])
		}
		return n.ExpandDFACTS(xd)
	}
	if _, err := sess.Cost(point(0)); err != nil {
		t.Fatalf("low corner: %v", err)
	}
	warmCost, err := sess.Cost(point(0.8))
	if err != nil {
		t.Fatalf("far point: %v", err)
	}
	cold, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	coldCost, err := cold.NewSession().Cost(point(0.8))
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 + math.Abs(coldCost)
	if math.Abs(warmCost-coldCost) > 1e-9*scale {
		t.Fatalf("corner jump: warm %.15g vs cold %.15g", warmCost, coldCost)
	}
	st := sess.w.rsolver.Stats()
	if st.Solves != 2 {
		t.Fatalf("expected 2 solves, got %+v", st)
	}
	// The calibrated ratings make the full high corner operationally
	// infeasible; the warm path must agree with a cold solve on that too.
	_, warmErr := sess.Cost(point(1))
	_, coldErr := cold.NewSession().Cost(point(1))
	if (warmErr == nil) != (coldErr == nil) {
		t.Fatalf("high corner: warm err %v, cold err %v", warmErr, coldErr)
	}
}

// TestWarmSessionMatchesDense ensures the warm sparse session agrees with
// the dense (historical, bitwise) engine across perturbations: same LP up
// to the 1e-10 PTDF backend agreement.
func TestWarmSessionMatchesDense(t *testing.T) {
	for _, caseName := range []string{"ieee57", "ieee118"} {
		n, err := grid.CaseByName(caseName)
		if err != nil {
			t.Fatal(err)
		}
		sparseEng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
		if err != nil {
			t.Fatal(err)
		}
		denseEng, err := NewDispatchEngineBackend(n, grid.DenseBackend)
		if err != nil {
			t.Fatal(err)
		}
		sess := sparseEng.NewSession()
		rng := rand.New(rand.NewSource(5))
		lo, hi := n.DFACTSBounds()
		xd := make([]float64, len(lo))
		trials := 12
		if testing.Short() {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			for i := range xd {
				xd[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			x := n.ExpandDFACTS(xd)
			warm, warmErr := sess.Cost(x)
			dense, denseErr := denseEng.Cost(x)
			if (warmErr == nil) != (denseErr == nil) {
				t.Fatalf("%s trial %d: warm err %v, dense err %v", caseName, trial, warmErr, denseErr)
			}
			if denseErr != nil {
				continue
			}
			rel := math.Abs(warm-dense) / (1 + math.Abs(dense))
			if rel > 1e-6 {
				t.Fatalf("%s trial %d: warm %.10g vs dense %.10g (rel %.3g)", caseName, trial, warm, dense, rel)
			}
		}
	}
}

// TestDropRaysRestoresSeedState checks the determinism boundary: after
// earlier solves and DropRays, the session's next solve starts from
// the engine's fixed seed basis, bitwise identical to a fresh session's
// first solve of the same candidate (the property that makes results
// independent of how starts land on workers).
func TestDropRaysRestoresSeedState(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession()
	lo, hi := n.DFACTSBounds()
	point := func(f float64) []float64 {
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = lo[i] + f*(hi[i]-lo[i])
		}
		return n.ExpandDFACTS(xd)
	}
	// Solve other candidates on the session first, then drop its rays.
	if _, err := sess.Cost(n.Reactances()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Cost(point(0.35)); err != nil {
		t.Fatal(err)
	}
	st := sess.w.rsolver.Stats()
	if st.WarmSolves != st.Solves {
		t.Fatalf("seeded session ran a cold solve: %+v", st)
	}
	sess.DropRays()
	got, err := sess.Cost(point(0.6))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.NewSession().Cost(point(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-reset solve %.17g != fresh-session solve %.17g", got, want)
	}
}

// TestSeedBasisPurity pins the pooled-solve purity contract the seed
// basis preserves: engine-level Cost answers are bitwise identical
// however many warm solves other users of the engine ran in between.
func TestSeedBasisPurity(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.25*lo[i] + 0.75*hi[i]
	}
	x := n.ExpandDFACTS(xd)
	first, err := eng.Cost(x)
	if err != nil {
		t.Fatal(err)
	}
	// Pollute the pool with warm histories at other candidates.
	sess := eng.NewSession()
	for _, f := range []float64{0.1, 0.5, 0.9} {
		for i := range xd {
			xd[i] = lo[i] + f*(hi[i]-lo[i])
		}
		if _, err := sess.Cost(n.ExpandDFACTS(xd)); err != nil {
			t.Fatal(err)
		}
	}
	again, err := eng.Cost(x)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("pooled Cost drifted after interleaved warm solves: %.17g vs %.17g", first, again)
	}
}

// TestPooledSolvesStartWithNoRays: a pooled solve recycles no Farkas ray
// from an earlier, unrelated pooled solve. sync.Pool hands workspaces out
// in a GC-dependent order, so a recycled ray would make the pre-screen
// work, and with it the solve counts, depend on the GC.
func TestPooledSolvesStartWithNoRays(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	// Σ load beyond Σ gmax: every candidate is infeasible for the same
	// reason, so a ray certified by one solve proves the next infeasible.
	for i := range n.Buses {
		n.Buses[i].LoadMW *= 50
	}
	x := n.Reactances()
	if _, err := eng.Cost(x); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("overloaded system: %v, want ErrInfeasible", err)
	}
	x[0] *= 1.01 // a new memo key: the second Cost solves too
	before := lp.GlobalRevisedStats()
	if _, err := eng.Cost(x); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("overloaded system: %v, want ErrInfeasible", err)
	}
	if d := metrics.Delta(lp.GlobalRevisedStats(), before); d.PrescreenHits != 0 || d.Solves != 1 {
		t.Fatalf("second pooled solve: %d pre-screen hits and %d solves, want 0 and 1", d.PrescreenHits, d.Solves)
	}
}
