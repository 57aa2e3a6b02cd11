package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/mat"
	"gridmtd/internal/metrics"
)

// randomBoundedLP builds a random feasible-looking LP with one equality
// row (a budget constraint, like the dispatch balance) and several
// inequality rows over box-bounded variables.
func randomBoundedLP(rng *rand.Rand, n, nUb int) *Problem {
	c := make([]float64, n)
	lo := make([]float64, n)
	up := make([]float64, n)
	total := 0.0
	for j := 0; j < n; j++ {
		c[j] = 1 + 9*rng.Float64()
		lo[j] = 0
		up[j] = 1 + 4*rng.Float64()
		total += up[j]
	}
	aeq := mat.NewDense(1, n)
	for j := 0; j < n; j++ {
		aeq.Set(0, j, 1)
	}
	beq := []float64{total * (0.3 + 0.4*rng.Float64())}
	aub := mat.NewDense(nUb, n)
	bub := make([]float64, nUb)
	for i := 0; i < nUb; i++ {
		for j := 0; j < n; j++ {
			aub.Set(i, j, 2*rng.Float64()-1)
		}
		bub[i] = 1 + 3*rng.Float64()
	}
	return &Problem{C: c, Aeq: aeq, Beq: beq, Aub: aub, Bub: bub, Lower: lo, Upper: up}
}

func objectivesAgree(t *testing.T, tag string, a, b float64) {
	t.Helper()
	scale := 1 + math.Abs(a)
	if math.Abs(a-b) > 1e-9*scale {
		t.Fatalf("%s: objectives disagree: %.15g vs %.15g", tag, a, b)
	}
}

// TestRevisedMatchesFlatRandom cross-checks the revised solver against the
// flat tableau solver on random LPs, including the warm re-solve of each
// problem from the basis the first solve ended on.
func TestRevisedMatchesFlatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := NewRevisedSolver()
	solved := 0
	for trial := 0; trial < 120; trial++ {
		p := randomBoundedLP(rng, 3+rng.Intn(6), 1+rng.Intn(8))
		ref, refErr := Solve(p)
		got, gotErr := rs.Solve(p, nil)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: flat err %v, revised err %v", trial, refErr, gotErr)
		}
		if refErr != nil {
			continue
		}
		solved++
		objectivesAgree(t, "cold", ref.Objective, got.Objective)
		// Re-solve warm: the captured basis is already optimal, so this
		// must finish on the warm path.
		before := rs.Stats()
		again, err := rs.Solve(p, rs.CaptureBasis())
		if err != nil {
			t.Fatalf("trial %d warm re-solve: %v", trial, err)
		}
		objectivesAgree(t, "warm", ref.Objective, again.Objective)
		if rs.Stats().WarmSolves == before.WarmSolves {
			t.Fatalf("trial %d: warm re-solve did not use the warm path", trial)
		}
	}
	if solved < 40 {
		t.Fatalf("only %d/120 random LPs were feasible; generator too aggressive", solved)
	}
}

// TestRevisedWarmAcrossPerturbations drives one solver through a walk of
// slightly perturbed LPs, each started from the basis the previous solve
// ended on, and cross-checks every solve against a fresh flat solve.
func TestRevisedWarmAcrossPerturbations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var base *Problem
	for seed := int64(11); ; seed++ {
		rng = rand.New(rand.NewSource(seed))
		base = randomBoundedLP(rng, 6, 10)
		if _, err := Solve(base); err == nil {
			break
		}
		if seed > 100 {
			t.Fatal("no feasible base LP found")
		}
	}
	rs := NewRevisedSolver()
	warmUsed := 0
	for step := 0; step < 60; step++ {
		p := &Problem{
			C:     base.C,
			Aeq:   base.Aeq,
			Beq:   base.Beq,
			Aub:   base.Aub.Clone(),
			Bub:   append([]float64(nil), base.Bub...),
			Lower: base.Lower,
			Upper: base.Upper,
		}
		for i := 0; i < p.Aub.Rows(); i++ {
			for j := 0; j < p.Aub.Cols(); j++ {
				p.Aub.Set(i, j, p.Aub.At(i, j)*(1+0.15*(2*rng.Float64()-1)))
			}
			p.Bub[i] *= 1 + 0.15*(2*rng.Float64()-1)
		}
		ref, refErr := Solve(p)
		before := rs.Stats()
		got, gotErr := rs.Solve(p, rs.CaptureBasis())
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("step %d: flat err %v, revised err %v", step, refErr, gotErr)
		}
		if refErr != nil {
			continue
		}
		objectivesAgree(t, "perturbed", ref.Objective, got.Objective)
		if rs.Stats().WarmSolves > before.WarmSolves {
			warmUsed++
		}
	}
	if warmUsed == 0 {
		t.Fatal("no perturbed solve used the warm path")
	}
	t.Logf("warm path used on %d/60 perturbed solves; stats %+v", warmUsed, rs.Stats())
}

// TestRevisedDualRecovery tightens an inequality until the previous
// optimal basis is primal infeasible and checks that the dual-simplex
// recovery produces the flat solver's optimum.
func TestRevisedDualRecovery(t *testing.T) {
	// min -x0 - x1 inside the unit box with x0 + x1 <= b: the optimum
	// rides the diagonal constraint, so shrinking b strands the old basis
	// above the new facet.
	mk := func(b float64) *Problem {
		return &Problem{
			C:     []float64{-1, -1.1},
			Aub:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
			Bub:   []float64{b},
			Lower: []float64{0, 0},
			Upper: []float64{1, 1},
		}
	}
	rs := NewRevisedSolver()
	if _, err := rs.Solve(mk(1.5), nil); err != nil {
		t.Fatal(err)
	}
	before := rs.Stats()
	got, err := rs.Solve(mk(0.8), rs.CaptureBasis())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Solve(mk(0.8))
	if err != nil {
		t.Fatal(err)
	}
	objectivesAgree(t, "tightened", ref.Objective, got.Objective)
	st := rs.Stats()
	if st.WarmSolves == before.WarmSolves {
		t.Fatalf("tightened solve fell back cold: %+v", st)
	}
	if st.DualPivots == before.DualPivots {
		t.Fatalf("expected dual-simplex pivots for the primal-infeasible basis: %+v", st)
	}
}

// TestRevisedDegenerateBasis re-solves a degenerate LP (redundant active
// constraints at the optimum) warm and cross-checks the objective.
func TestRevisedDegenerateBasis(t *testing.T) {
	// Three constraints meet x0 + x1 <= 1 at the same vertex (1, 0):
	// duplicated rows force degenerate pivots.
	p := &Problem{
		C:     []float64{-1, -0.5},
		Aub:   mat.NewDenseFrom(3, 2, []float64{1, 1, 1, 1, 2, 2}),
		Bub:   []float64{1, 1, 2},
		Lower: []float64{0, 0},
		Upper: []float64{2, 2},
	}
	rs := NewRevisedSolver()
	first, err := rs.Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := rs.Solve(p, rs.CaptureBasis())
	if err != nil {
		t.Fatal(err)
	}
	objectivesAgree(t, "degenerate", first.Objective, second.Objective)
	ref, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	objectivesAgree(t, "degenerate-vs-flat", ref.Objective, second.Objective)
}

// TestRevisedInfeasibleAfterWarm perturbs a solved LP into infeasibility;
// the warm path must hand over to the flat solver, which reports
// ErrInfeasible.
func TestRevisedInfeasibleAfterWarm(t *testing.T) {
	mk := func(b float64) *Problem {
		return &Problem{
			C:     []float64{1, 1},
			Aeq:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
			Beq:   []float64{1},
			Aub:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
			Bub:   []float64{b},
			Lower: []float64{0, 0},
			Upper: []float64{1, 1},
		}
	}
	rs := NewRevisedSolver()
	if _, err := rs.Solve(mk(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Solve(mk(0.5), rs.CaptureBasis()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	// And the solver recovers once the problem is feasible again.
	sol, err := rs.Solve(mk(2), rs.CaptureBasis())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("post-recovery objective %.12g, want 1", sol.Objective)
	}
}

// TestRevisedFreeVariableFallsBack checks that problems outside the warm
// path's variable model (free variables) still solve via the flat solver.
func TestRevisedFreeVariableFallsBack(t *testing.T) {
	p := &Problem{
		C:   []float64{1, 2},
		Aeq: mat.NewDenseFrom(1, 2, []float64{1, 1}),
		Beq: []float64{3},
		Aub: mat.NewDenseFrom(1, 2, []float64{1, -1}),
		Bub: []float64{1},
	}
	rs := NewRevisedSolver()
	got, err := rs.Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	objectivesAgree(t, "free", ref.Objective, got.Objective)
	if rs.Stats().WarmSolves != 0 {
		t.Fatal("free-variable LP must not use the warm path")
	}
}

// TestRevisedSolvePure checks that a solve depends only on its problem
// and its start: solving the same problem from the same start gives
// bitwise the same X and objective, and runs the same pivots, whatever the
// solver solved in between.
func TestRevisedSolvePure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomBoundedLP(rng, 5, 6)
	if _, err := Solve(p); err != nil {
		t.Skip("random LP infeasible under this seed")
	}
	// other reverses p's costs: same feasible region, another optimal
	// vertex.
	other := *p
	other.C = make([]float64, len(p.C))
	for j, c := range p.C {
		other.C[len(p.C)-1-j] = c
	}
	ref := NewRevisedSolver()
	if _, err := ref.Solve(&other, nil); err != nil {
		t.Fatal(err)
	}
	for _, start := range []*WarmBasis{nil, ref.CaptureBasis()} {
		rs := NewRevisedSolver()
		solve := func() (*Solution, RevisedStats) {
			before := rs.Stats()
			sol, err := rs.Solve(p, start)
			if err != nil {
				t.Fatal(err)
			}
			return sol, metrics.Delta(rs.Stats(), before)
		}
		first, firstStats := solve()
		if _, err := rs.Solve(&other, rs.CaptureBasis()); err != nil {
			t.Fatal(err)
		}
		again, againStats := solve()
		if againStats != firstStats {
			t.Fatalf("start %v: counters %+v, first solve %+v", start != nil, againStats, firstStats)
		}
		if again.Objective != first.Objective {
			t.Fatalf("start %v: objective %.17g, first solve %.17g", start != nil, again.Objective, first.Objective)
		}
		for j := range first.X {
			if again.X[j] != first.X[j] {
				t.Fatalf("start %v: x[%d] = %.17g, first solve %.17g", start != nil, j, again.X[j], first.X[j])
			}
		}
	}
}

// dispatchShapedLP is a two-generator dispatch LP in the shape of the
// sparse tier's: a power balance whose rhs (3600 MW) is thousands of
// times the flow limits, and one ranged flow row per line. Line a
// (limit 10) is the most violated row at the crash basis; once it binds,
// line b (limit 0.99999, 0.1 % of generator 1's output) is over its limit
// by 1e-5, far inside the balance row's scale (about 3.6e-4) but far
// outside line b's own (about 2e-7). Line b binds at the optimum.
func dispatchShapedLP(limitA float64) *Problem {
	return &Problem{
		C:     []float64{1, 2},
		Aeq:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
		Beq:   []float64{3600},
		Aub:   mat.NewDenseFrom(2, 2, []float64{1e-2, 0, 1e-3, 0}),
		Bub:   []float64{limitA, 0.99999},
		Lub:   []float64{-limitA, -0.99999},
		Lower: []float64{0, 0},
		Upper: []float64{4000, 4000},
	}
}

// TestRevisedSmallFlowRowLargeBalance checks that the revised loops accept
// a flow row as feasible only where verify does: the dispatch-shaped LP
// solves on the revised path, from the crash basis and from a start whose
// limits did not bind, with no abandoned attempt and no flat-tableau
// solve, and agrees with the flat Solver.
func TestRevisedSmallFlowRowLargeBalance(t *testing.T) {
	p := dispatchShapedLP(10)
	ref, err := NewSolver().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRevisedSolver()
	if _, err := rs.Solve(dispatchShapedLP(100), nil); err != nil {
		t.Fatal(err)
	}
	loose := rs.CaptureBasis()
	for _, start := range []*WarmBasis{nil, loose} {
		before := rs.Stats()
		got, err := rs.Solve(p, start)
		if err != nil {
			t.Fatal(err)
		}
		objectivesAgree(t, "dispatch-shaped", ref.Objective, got.Objective)
		if d := metrics.Delta(rs.Stats(), before); d.Fallbacks != 0 || d.ColdSolves != 0 {
			t.Fatalf("start %v: %d fallbacks, %d cold solves; want 0 and 0", start != nil, d.Fallbacks, d.ColdSolves)
		}
	}
}

// TestRevisedDualInfeasibleStart pins the warm route from a start that is
// primal feasible but dual infeasible: the captured optimum of one cost
// vector started on another over the same constraints.
//   - Wrong-signed reduced costs only on boxed variables: bound flips make
//     the start dual feasible, and the dual simplex solves it with no
//     abandoned attempt (its long-step ratio test flips two of the three
//     variables back).
//   - A wrong-signed reduced cost on a one-sided inequality row's slack,
//     which has no finite upper bound to flip to: the attempt is abandoned
//     once, and the crash basis solves it (a ranged row's slack flips; see
//     TestRangedSlackFlipsToUpperBound).
//
// Both agree with the flat Solver to 1e-9, and neither runs a primal
// pivot.
func TestRevisedDualInfeasibleStart(t *testing.T) {
	// min cᵀx over the unit box with Σx ≤ bub.
	mk := func(bub float64, c ...float64) *Problem {
		n := len(c)
		ones := make([]float64, n)
		lo, up := make([]float64, n), make([]float64, n)
		for j := range ones {
			ones[j], up[j] = 1, 1
		}
		return &Problem{C: c, Aub: mat.NewDenseFrom(1, n, ones), Bub: []float64{bub}, Lower: lo, Upper: up}
	}
	for _, tc := range []struct {
		name       string
		from, to   *Problem
		fallbacks  int
		boundFlips bool
	}{
		// The start has every variable at its lower bound and the slack
		// basic; all three reduced costs are wrong-signed there.
		{"boxed", mk(0.5, 1, 1, 1), mk(0.5, -1, -1, -2), 0, true},
		// The start has x basic at the active row's bound; under +x the
		// row's slack prices at -1 from its lower bound.
		{"slack", mk(0.5, -1), mk(0.5, 1), 1, false},
	} {
		ref, err := NewSolver().Solve(tc.to)
		if err != nil {
			t.Fatal(err)
		}
		rs := NewRevisedSolver()
		if _, err := rs.Solve(tc.from, nil); err != nil {
			t.Fatal(err)
		}
		before := rs.Stats()
		got, err := rs.Solve(tc.to, rs.CaptureBasis())
		if err != nil {
			t.Fatal(err)
		}
		objectivesAgree(t, tc.name, ref.Objective, got.Objective)
		d := metrics.Delta(rs.Stats(), before)
		if d.WarmSolves != 1 || d.ColdSolves != 0 || d.Fallbacks != tc.fallbacks {
			t.Errorf("%s: %d warm, %d cold, %d fallbacks; want 1, 0, %d", tc.name, d.WarmSolves, d.ColdSolves, d.Fallbacks, tc.fallbacks)
		}
		if tc.boundFlips && d.BoundFlips == 0 {
			t.Errorf("%s: no bound flips: %+v", tc.name, d)
		}
		if d.PrimalPivots != 0 {
			t.Errorf("%s: %d primal pivots", tc.name, d.PrimalPivots)
		}
	}
}
