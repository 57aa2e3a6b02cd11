package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridmtd/internal/mat"
)

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func TestSimpleBoundedMin(t *testing.T) {
	// min x1 + 2 x2 with 1 <= x <= 3 elementwise: optimum at the lower corner.
	p := &Problem{
		C:     []float64{1, 2},
		Lower: []float64{1, 1},
		Upper: []float64{3, 3},
	}
	s := mustSolve(t, p)
	if !mat.VecEqual(s.X, []float64{1, 1}, 1e-9) {
		t.Fatalf("X = %v, want [1 1]", s.X)
	}
	if math.Abs(s.Objective-3) > 1e-9 {
		t.Fatalf("Objective = %v, want 3", s.Objective)
	}
}

func TestClassicLP(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
	// (standard textbook problem; optimum x=2, y=6, value 36).
	aub := mat.NewDenseFrom(3, 2, []float64{
		1, 0,
		0, 2,
		3, 2,
	})
	p := &Problem{
		C:     []float64{-3, -5}, // maximize => minimize negative
		Aub:   aub,
		Bub:   []float64{4, 12, 18},
		Lower: []float64{0, 0},
	}
	s := mustSolve(t, p)
	if !mat.VecEqual(s.X, []float64{2, 6}, 1e-8) {
		t.Fatalf("X = %v, want [2 6]", s.X)
	}
	if math.Abs(s.Objective+36) > 1e-8 {
		t.Fatalf("Objective = %v, want -36", s.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min 2a + 3b s.t. a + b = 10, 0 <= a,b <= 8: put as much as possible on a.
	p := &Problem{
		C:     []float64{2, 3},
		Aeq:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
		Beq:   []float64{10},
		Lower: []float64{0, 0},
		Upper: []float64{8, 8},
	}
	s := mustSolve(t, p)
	if !mat.VecEqual(s.X, []float64{8, 2}, 1e-8) {
		t.Fatalf("X = %v, want [8 2]", s.X)
	}
}

func TestMeritOrderDispatch(t *testing.T) {
	// A miniature economic dispatch: three generators, total must equal
	// 100, cheapest fills first.
	p := &Problem{
		C:     []float64{10, 20, 30},
		Aeq:   mat.NewDenseFrom(1, 3, []float64{1, 1, 1}),
		Beq:   []float64{100},
		Lower: []float64{0, 0, 0},
		Upper: []float64{40, 50, 100},
	}
	s := mustSolve(t, p)
	if !mat.VecEqual(s.X, []float64{40, 50, 10}, 1e-8) {
		t.Fatalf("X = %v, want [40 50 10]", s.X)
	}
	if math.Abs(s.Objective-(400+1000+300)) > 1e-7 {
		t.Fatalf("Objective = %v", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x >= 5 and x <= 1 simultaneously.
	p := &Problem{
		C:     []float64{1},
		Aub:   mat.NewDenseFrom(1, 1, []float64{-1}),
		Bub:   []float64{-5}, // -x <= -5 i.e. x >= 5
		Lower: []float64{0},
		Upper: []float64{1},
	}
	_, err := Solve(p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	// x1 + x2 = 5 with upper bounds 1 each.
	p := &Problem{
		C:     []float64{1, 1},
		Aeq:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
		Beq:   []float64{5},
		Lower: []float64{0, 0},
		Upper: []float64{1, 1},
	}
	_, err := Solve(p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x >= 0 and no upper bound.
	p := &Problem{
		C:     []float64{-1},
		Lower: []float64{0},
	}
	_, err := Solve(p)
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestFreeVariable(t *testing.T) {
	// min |style| objective with a free variable pushed negative:
	// min x s.t. x >= -7 is modelled with an inequality, x itself free.
	p := &Problem{
		C:   []float64{1},
		Aub: mat.NewDenseFrom(1, 1, []float64{-1}),
		Bub: []float64{7}, // -x <= 7 i.e. x >= -7
	}
	s := mustSolve(t, p)
	if math.Abs(s.X[0]+7) > 1e-8 {
		t.Fatalf("X = %v, want -7", s.X)
	}
}

func TestUpperBoundedOnlyVariable(t *testing.T) {
	// min -x with x <= 4 and no lower bound: optimum 4.
	p := &Problem{
		C:     []float64{-1},
		Upper: []float64{4},
	}
	s := mustSolve(t, p)
	if math.Abs(s.X[0]-4) > 1e-9 {
		t.Fatalf("X = %v, want 4", s.X)
	}
}

func TestNegativeRHS(t *testing.T) {
	// Equality with negative RHS exercises row normalization.
	p := &Problem{
		C:     []float64{1, 1},
		Aeq:   mat.NewDenseFrom(1, 2, []float64{-1, -1}),
		Beq:   []float64{-4},
		Lower: []float64{0, 0},
		Upper: []float64{10, 10},
	}
	s := mustSolve(t, p)
	if math.Abs(s.X[0]+s.X[1]-4) > 1e-8 {
		t.Fatalf("X = %v, want sum 4", s.X)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []*Problem{
		{},                                   // empty objective
		{C: []float64{1}, Beq: []float64{1}}, // Beq without Aeq
		{C: []float64{1}, Bub: []float64{1}}, // Bub without Aub
		{C: []float64{1}, Aeq: mat.NewDense(1, 2), Beq: []float64{0}},                          // Aeq shape
		{C: []float64{1}, Aeq: mat.NewDense(2, 1), Beq: []float64{0}},                          // Beq length
		{C: []float64{1}, Lower: []float64{1, 2}},                                              // Lower length
		{C: []float64{1}, Upper: []float64{1, 2}},                                              // Upper length
		{C: []float64{1}, Lower: []float64{2}, Upper: []float64{1}},                            // crossed bounds
		{C: []float64{1, 2}, Aub: mat.NewDense(1, 2), Bub: []float64{0, 1}},                    // Bub length
		{C: []float64{1, 2}, Aub: mat.NewDense(1, 3), Bub: []float64{0}},                       // Aub shape
		{C: []float64{1, 2}, Aub: mat.NewDense(1, 2), Bub: []float64{0}, Lub: []float64{0, 0}}, // Lub length
		{C: []float64{1}, Lub: []float64{0}},                                                   // Lub without Aub
		{C: []float64{1, 2}, Aub: mat.NewDense(1, 2), Bub: []float64{0}, Lub: []float64{1}},    // Lub > Bub
	}
	for i, p := range cases {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Multiple redundant constraints meeting at the optimum; Bland's rule
	// must still terminate.
	aub := mat.NewDenseFrom(4, 2, []float64{
		1, 1,
		1, 1,
		1, 0,
		0, 1,
	})
	p := &Problem{
		C:     []float64{-1, -1},
		Aub:   aub,
		Bub:   []float64{2, 2, 1, 1},
		Lower: []float64{0, 0},
	}
	s := mustSolve(t, p)
	if math.Abs(s.Objective+2) > 1e-8 {
		t.Fatalf("Objective = %v, want -2", s.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicated equality rows leave a redundant artificial in the basis;
	// the solver must cope.
	aeq := mat.NewDenseFrom(2, 2, []float64{
		1, 1,
		1, 1,
	})
	p := &Problem{
		C:     []float64{1, 2},
		Aeq:   aeq,
		Beq:   []float64{3, 3},
		Lower: []float64{0, 0},
	}
	s := mustSolve(t, p)
	if !mat.VecEqual(s.X, []float64{3, 0}, 1e-8) {
		t.Fatalf("X = %v, want [3 0]", s.X)
	}
}

// Property: for random feasible dispatch problems, the solution satisfies
// all constraints and is no worse than a large random sample of feasible
// points.
func TestQuickDispatchOptimality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		c := make([]float64, n)
		up := make([]float64, n)
		var capTotal float64
		for j := 0; j < n; j++ {
			c[j] = 1 + r.Float64()*10
			up[j] = 1 + r.Float64()*10
			capTotal += up[j]
		}
		demand := capTotal * (0.2 + 0.6*r.Float64())
		p := &Problem{
			C:     c,
			Aeq:   mat.NewDenseFrom(1, n, mat.Ones(n)),
			Beq:   []float64{demand},
			Lower: make([]float64, n),
			Upper: up,
		}
		s, err := Solve(p)
		if err != nil {
			return false
		}
		// Feasibility.
		var sum float64
		for j := 0; j < n; j++ {
			if s.X[j] < -1e-7 || s.X[j] > up[j]+1e-7 {
				return false
			}
			sum += s.X[j]
		}
		if math.Abs(sum-demand) > 1e-6 {
			return false
		}
		// Optimality vs greedy merit order (known optimum for this LP).
		type gen struct{ cost, cap float64 }
		gens := make([]gen, n)
		for j := 0; j < n; j++ {
			gens[j] = gen{c[j], up[j]}
		}
		// insertion sort by cost
		for i := 1; i < n; i++ {
			for k := i; k > 0 && gens[k].cost < gens[k-1].cost; k-- {
				gens[k], gens[k-1] = gens[k-1], gens[k]
			}
		}
		remaining := demand
		var best float64
		for _, g := range gens {
			take := math.Min(remaining, g.cap)
			best += take * g.cost
			remaining -= take
		}
		return math.Abs(s.Objective-best) < 1e-6*(1+math.Abs(best))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the reported objective always equals cᵀx of the reported point.
func TestQuickObjectiveConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		c := make([]float64, n)
		lo := make([]float64, n)
		up := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = r.NormFloat64()
			lo[j] = -r.Float64() * 5
			up[j] = lo[j] + r.Float64()*10
		}
		p := &Problem{C: c, Lower: lo, Upper: up}
		s, err := Solve(p)
		if err != nil {
			return false
		}
		return math.Abs(s.Objective-mat.Dot(c, s.X)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSolverReuseMatchesOneShot solves a sequence of structurally varied
// problems through one reused Solver and checks each solution is bitwise
// identical to a fresh package-level Solve.
func TestSolverReuseMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewSolver()
	for trial := 0; trial < 50; trial++ {
		nv := 2 + rng.Intn(4)
		nub := rng.Intn(6)
		prob := &Problem{C: make([]float64, nv)}
		for j := range prob.C {
			prob.C[j] = rng.NormFloat64()
		}
		lo := make([]float64, nv)
		hi := make([]float64, nv)
		for j := 0; j < nv; j++ {
			lo[j] = -1 - rng.Float64()
			hi[j] = 1 + rng.Float64()
		}
		prob.Lower, prob.Upper = lo, hi
		aeq := mat.NewDense(1, nv)
		for j := 0; j < nv; j++ {
			aeq.Set(0, j, 1)
		}
		prob.Aeq = aeq
		prob.Beq = []float64{rng.Float64()}
		if nub > 0 {
			aub := mat.NewDense(nub, nv)
			bub := make([]float64, nub)
			for i := 0; i < nub; i++ {
				for j := 0; j < nv; j++ {
					aub.Set(i, j, rng.NormFloat64())
				}
				bub[i] = 0.5 + rng.Float64()
			}
			prob.Aub = aub
			prob.Bub = bub
		}

		fresh, errFresh := Solve(prob)
		reused, errReused := s.Solve(prob)
		if (errFresh == nil) != (errReused == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errFresh, errReused)
		}
		if errFresh != nil {
			continue
		}
		if fresh.Objective != reused.Objective {
			t.Fatalf("trial %d: objective %v vs %v", trial, fresh.Objective, reused.Objective)
		}
		for j := range fresh.X {
			if fresh.X[j] != reused.X[j] {
				t.Fatalf("trial %d: x[%d] = %v vs %v", trial, j, fresh.X[j], reused.X[j])
			}
		}
	}
}

// TestSolverInfeasibleFallback drives the optimistic phase 1 into its
// exact-rerun fallback with an infeasible system and checks the verdict.
func TestSolverInfeasibleFallback(t *testing.T) {
	// x0 + x1 = 5 with 0 <= x <= 1 is infeasible.
	prob := &Problem{
		C:     []float64{1, 1},
		Aeq:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
		Beq:   []float64{5},
		Lower: []float64{0, 0},
		Upper: []float64{1, 1},
	}
	if _, err := NewSolver().Solve(prob); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}
