package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/mat"
	"gridmtd/internal/metrics"
)

// pairedForm writes every ranged row of p out as the pair
// Aub_i·x <= Bub_i, −Aub_i·x <= −Lub_i, with the lower sides appended
// after every Aub row in row order: the historical form of the dispatch
// LP's flow limits.
func pairedForm(p *Problem) *Problem {
	q := *p
	q.Lub = nil
	var low []int
	for i, l := range p.Lub {
		if !math.IsInf(l, -1) {
			low = append(low, i)
		}
	}
	nUb, n := p.Aub.Rows(), p.Aub.Cols()
	q.Aub = mat.NewDense(nUb+len(low), n)
	q.Bub = append([]float64(nil), p.Bub...)
	for i := 0; i < nUb; i++ {
		copy(q.Aub.RowView(i), p.Aub.RowView(i))
	}
	for t, i := range low {
		row := q.Aub.RowView(nUb + t)
		for j, v := range p.Aub.RowView(i) {
			row[j] = -v
		}
		q.Bub = append(q.Bub, -p.Lub[i])
	}
	return &q
}

// TestRangedRowOptimumOnLowerSide solves an LP whose one ranged row binds
// at its lower side: min x0 + 2·x1 over [0, 4]² with 0.3 <= x0 + x1 <= 5.
// The revised solver ends with the row's slack at its upper bound and
// must report x0 = 0.3 bitwise — the row's Lub itself, not
// Bub − (Bub − Lub), which rounds to 0.2999999999999998 — in agreement
// with the flat Solver.
func TestRangedRowOptimumOnLowerSide(t *testing.T) {
	p := &Problem{
		C:     []float64{1, 2},
		Aub:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
		Bub:   []float64{5},
		Lub:   []float64{0.3},
		Lower: []float64{0, 0},
		Upper: []float64{4, 4},
	}
	ref, err := NewSolver().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRevisedSolver()
	got, err := rs.Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := rs.Stats(); st.WarmSolves != 1 || st.ColdSolves != 0 {
		t.Fatalf("not solved on the revised path: %+v", st)
	}
	objectivesAgree(t, "lower side", ref.Objective, got.Objective)
	if got.X[0] != 0.3 || got.X[1] != 0 {
		t.Fatalf("x = %.17g, want [0.3 0] exactly", got.X)
	}
	if rs.status[2] != stUpper {
		t.Fatalf("row slack status %d, want at its upper bound", rs.status[2])
	}
}

// TestRangedSlackFlipsToUpperBound is the day-sweep start failure in
// miniature. The start is the optimum of min −x over [0, 1] with
// 0.2 <= x <= 0.5: x basic at the row's upper side, the row's slack
// nonbasic at 0. Under min +x that slack prices at −1. As a ranged row
// the slack flips to its upper bound, which moves the row to its lower
// side and is the optimum, with no abandoned attempt and no pivot. In the
// paired form the same slack has no finite upper bound, so the attempt is
// abandoned and the crash basis solves it.
func TestRangedSlackFlipsToUpperBound(t *testing.T) {
	mk := func(c float64) *Problem {
		return &Problem{
			C:     []float64{c},
			Aub:   mat.NewDenseFrom(1, 1, []float64{1}),
			Bub:   []float64{0.5},
			Lub:   []float64{0.2},
			Lower: []float64{0},
			Upper: []float64{1},
		}
	}
	for _, tc := range []struct {
		name      string
		form      func(*Problem) *Problem
		fallbacks int
	}{
		{"ranged", func(p *Problem) *Problem { return p }, 0},
		{"paired", pairedForm, 1},
	} {
		from, to := tc.form(mk(-1)), tc.form(mk(1))
		rs := NewRevisedSolver()
		if _, err := rs.Solve(from, nil); err != nil {
			t.Fatal(err)
		}
		before := rs.Stats()
		got, err := rs.Solve(to, rs.CaptureBasis())
		if err != nil {
			t.Fatal(err)
		}
		if got.X[0] != 0.2 {
			t.Errorf("%s: x = %.17g, want 0.2", tc.name, got.X[0])
		}
		d := metrics.Delta(rs.Stats(), before)
		if d.WarmSolves != 1 || d.ColdSolves != 0 || d.Fallbacks != tc.fallbacks {
			t.Errorf("%s: %d warm, %d cold, %d fallbacks; want 1, 0, %d", tc.name, d.WarmSolves, d.ColdSolves, d.Fallbacks, tc.fallbacks)
		}
		if tc.fallbacks == 0 && d.DualPivots != 0 {
			t.Errorf("%s: %d dual pivots after the flip, want 0", tc.name, d.DualPivots)
		}
	}
}

// TestRangedInfeasibleRayPrescreens solves an infeasible ranged LP:
// 3 <= x0 + x1 <= 4 over [0, 1]². Its Farkas ray needs the row's lower
// side, a negative multiplier that the one-sided clamp would zero. The
// captured ray must keep it and pre-screen a perturbed copy
// (3.2 <= x0 + x1 <= 4.5) without a solve.
func TestRangedInfeasibleRayPrescreens(t *testing.T) {
	mk := func(lub, bub float64) *Problem {
		return &Problem{
			C:     []float64{1, 1},
			Aub:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
			Bub:   []float64{bub},
			Lub:   []float64{lub},
			Lower: []float64{0, 0},
			Upper: []float64{1, 1},
		}
	}
	rs := NewRevisedSolver()
	if _, err := rs.Solve(mk(3, 4), nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if st := rs.Stats(); st.WarmSolves != 1 || len(rs.rays) != 1 {
		t.Fatalf("infeasibility not certified on the revised path: %+v, %d rays", st, len(rs.rays))
	}
	if y := rs.rays[0].y; y[0] >= 0 {
		t.Fatalf("captured ray %v, want a negative row multiplier", y)
	}
	cand := mk(3.2, 4.5)
	if _, err := NewSolver().Solve(cand); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("flat solver: want ErrInfeasible, got %v", err)
	}
	before := rs.Stats()
	if _, err := rs.Solve(cand, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if d := metrics.Delta(rs.Stats(), before); d.PrescreenHits != 1 || d.Solves != 0 {
		t.Fatalf("perturbed copy not pre-screened: %+v", d)
	}
}

// TestFlatRangedMatchesPairedForm checks that the flat Solver's
// expansion of ranged rows is the hand-written pair: random LPs with some
// rows ranged (a few with Lub = Bub) solve to bitwise the answer, or the
// same error, of their paired form.
func TestFlatRangedMatchesPairedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := NewSolver()
	ranged := 0
	for trial := 0; trial < 80; trial++ {
		p := randomBoundedLP(rng, 2+rng.Intn(5), 1+rng.Intn(6))
		p.Lub = make([]float64, len(p.Bub))
		for i, b := range p.Bub {
			switch rng.Intn(4) {
			case 0:
				p.Lub[i] = math.Inf(-1)
			case 1:
				p.Lub[i] = b
			default:
				p.Lub[i] = b - 6*rng.Float64()
			}
		}
		got, gotErr := s.Solve(p)
		want, wantErr := Solve(pairedForm(p))
		if !errors.Is(gotErr, wantErr) && !errors.Is(wantErr, gotErr) {
			t.Fatalf("trial %d: ranged %v, paired %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		ranged++
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("trial %d: objective %.17g ranged, %.17g paired", trial, got.Objective, want.Objective)
		}
		for j := range want.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
				t.Fatalf("trial %d: x[%d] = %.17g ranged, %.17g paired", trial, j, got.X[j], want.X[j])
			}
		}
	}
	if ranged == 0 {
		t.Fatal("no feasible ranged LP drawn")
	}
}

// TestVerifyChecksBothRowSides pins verify's row test to both sides of a
// ranged row, 0.3 <= x0 + x1 <= 5 over [0, 4]²: with every variable
// basic (no reduced-cost condition), a point inside the range passes and
// points past either side fail.
func TestVerifyChecksBothRowSides(t *testing.T) {
	p := &Problem{
		C:     []float64{1, 2},
		Aub:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
		Bub:   []float64{5},
		Lub:   []float64{0.3},
		Lower: []float64{0, 0},
		Upper: []float64{4, 4},
	}
	rs := NewRevisedSolver()
	rs.sigN, rs.sigEq, rs.sigUb = 2, 0, 1
	rs.setupModel(p)
	rs.status = []int8{stBasic, stBasic, stBasic}
	for _, tc := range []struct {
		x    [2]float64
		want bool
	}{
		{[2]float64{0.3, 0}, true},
		{[2]float64{2, 3}, true},
		{[2]float64{0.2, 0}, false},
		{[2]float64{3, 2.5}, false},
	} {
		rs.x[0], rs.x[1] = tc.x[0], tc.x[1]
		if got := rs.verify(p); got != tc.want {
			t.Errorf("x = %v: verify %v, want %v", tc.x, got, tc.want)
		}
	}
}

// TestStartFromRangedTwin solves one-sided problems from a basis captured
// on their ranged twin, whose row slack ended at its upper bound: the
// signatures match, so the start is used, and its slack status has no
// finite bound here. Each solve must still agree with the flat Solver.
func TestStartFromRangedTwin(t *testing.T) {
	mk := func(lub []float64) *Problem {
		return &Problem{
			C:     []float64{1, 2},
			Aub:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
			Bub:   []float64{5},
			Lub:   lub,
			Lower: []float64{0, 0},
			Upper: []float64{4, 4},
		}
	}
	rs := NewRevisedSolver()
	if _, err := rs.Solve(mk([]float64{0.3}), nil); err != nil {
		t.Fatal(err)
	}
	if rs.status[2] != stUpper {
		t.Fatalf("row slack status %d, want at its upper bound", rs.status[2])
	}
	twin := rs.CaptureBasis()
	for _, lub := range [][]float64{nil, {math.Inf(-1)}} {
		p := mk(lub)
		ref, err := NewSolver().Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rs.Solve(p, twin)
		if err != nil {
			t.Fatalf("Lub %v: %v", lub, err)
		}
		objectivesAgree(t, "one-sided from ranged twin", ref.Objective, got.Objective)
	}
}
