package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/mat"
	"gridmtd/internal/metrics"
)

// fuzzLP decodes a small bounded LP and a few right-hand-side
// perturbations of it from fuzz bytes: at most 6 variables and 6 rows,
// coefficients in [-8, 8) on a 1/16 grid, every variable boxed in a finite
// interval. A trailing byte scales the equality rows (coefficients and
// right-hand sides) by 10^(byte mod 4), so a balance row's scale can
// dwarf the inequality rows' as the dispatch LP's total load dwarfs its
// flow limits. Then one byte per variant tilts one of its inequality rows,
// the way a reactance change moves a PTDF row: a nonzero byte b adds
// (j+1)/n · int8(b)/32 to coefficient j of row b mod nUb. A right-hand
// side change leaves the base's optimal basis dual feasible; a tilted row
// can make it dual infeasible. Last, one byte per inequality row makes it
// ranged in every problem: a nonzero byte b gives the row the lower bound
// Lub = Bub − ((b−1) mod 8)/2 (so b = 1 gives Lub = Bub), and a ranged
// row's slack can flip between its bounds where a one-sided row's cannot.
// Bytes past the end read as 0, and a zero byte changes nothing.
type fuzzLP struct {
	data []byte
}

func (d *fuzzLP) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *fuzzLP) coef() float64 { return float64(int8(d.next())) / 16 }

func (d *fuzzLP) rows(m, n int) (*mat.Dense, []float64) {
	if m == 0 {
		return nil, nil
	}
	a, b := mat.NewDense(m, n), make([]float64, m)
	for i := range m {
		for j := range n {
			a.Set(i, j, d.coef())
		}
		b[i] = d.coef()
	}
	return a, b
}

// decode returns the base problem followed by its perturbed variants.
func (d *fuzzLP) decode() []*Problem {
	n := 1 + int(d.next()%6)
	nEq := int(d.next() % 3)
	nUb := int(d.next() % byte(7-nEq))
	k := 1 + int(d.next()%4)
	base := &Problem{C: make([]float64, n), Lower: make([]float64, n), Upper: make([]float64, n)}
	for j := range n {
		base.C[j] = d.coef()
	}
	for j := range n {
		base.Lower[j] = -float64(d.next()%3) / 2
		base.Upper[j] = base.Lower[j] + float64(1+d.next()%8)/2
	}
	base.Aeq, base.Beq = d.rows(nEq, n)
	base.Aub, base.Bub = d.rows(nUb, n)
	probs := []*Problem{base}
	for range k {
		q := *base
		q.Beq = append([]float64(nil), base.Beq...)
		q.Bub = append([]float64(nil), base.Bub...)
		for i := range q.Beq {
			q.Beq[i] += d.coef()
		}
		for i := range q.Bub {
			q.Bub[i] += d.coef()
		}
		probs = append(probs, &q)
	}
	if scale := math.Pow10(int(d.next() % 4)); scale != 1 && nEq > 0 {
		// Every variant shares the base's Aeq, so scaling it in place
		// scales them all.
		aeq := base.Aeq.RawData()
		for i := range aeq {
			aeq[i] *= scale
		}
		for _, q := range probs {
			q.Beq = mat.ScaleVec(scale, q.Beq)
		}
	}
	for _, q := range probs[1:] {
		b := d.next()
		if b == 0 || nUb == 0 {
			continue
		}
		q.Aub = base.Aub.Clone()
		r := int(b) % nUb
		for j := range n {
			q.Aub.Set(r, j, q.Aub.At(r, j)+float64(j+1)/float64(n)*float64(int8(b))/32)
		}
	}
	for i := range nUb {
		b := d.next()
		if b == 0 {
			continue
		}
		for _, q := range probs {
			if q.Lub == nil {
				q.Lub = make([]float64, nUb)
				for r := range q.Lub {
					q.Lub[r] = math.Inf(-1)
				}
			}
			q.Lub[i] = q.Bub[i] - float64((b-1)%8)/2
		}
	}
	return probs
}

// lpStatus maps a solve error onto the Status it reports, or 0 for any
// other error.
func lpStatus(err error) Status {
	switch {
	case err == nil:
		return StatusOptimal
	case errors.Is(err, ErrInfeasible):
		return StatusInfeasible
	case errors.Is(err, ErrUnbounded):
		return StatusUnbounded
	}
	return 0
}

// FuzzRevisedAgreesWithTableau decodes a small bounded LP and variants of
// it with perturbed right-hand sides, tilted inequality rows and ranged
// rows, and drives one RevisedSolver through the dispatch engine's start
// pattern: the base problem from the crash basis, whose final basis is
// captured, then every variant both from that basis and from the crash
// basis. Every answer must carry the flat tableau Solver's status and, when
// optimal, its objective to 1e-9 relative, and every Farkas pre-screen hit
// must be an infeasibility the tableau confirms. Finally the last variant
// is solved from the captured basis again after another solve in between,
// and must give bitwise the same answer. Run it with
//
//	go test -fuzz FuzzRevisedAgreesWithTableau -fuzztime 20s ./internal/lp
func FuzzRevisedAgreesWithTableau(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzLP{data: data}
		probs := d.decode()
		flat := NewSolver()
		want := make([]*Solution, len(probs))
		wantStatus := make([]Status, len(probs))
		for i, p := range probs {
			sol, err := flat.Solve(p)
			if wantStatus[i] = lpStatus(err); wantStatus[i] == 0 {
				t.Skipf("problem %d: tableau solver: %v", i, err)
			}
			want[i] = sol
		}
		rs := NewRevisedSolver()
		solve := func(i int, start *WarmBasis) *Solution {
			hits := rs.Stats().PrescreenHits
			got, gotErr := rs.Solve(probs[i], start)
			ws := wantStatus[i]
			if rs.Stats().PrescreenHits > hits && ws != StatusInfeasible {
				t.Fatalf("problem %d: pre-screen rejected a problem the tableau reports %v", i, ws)
			}
			if gs := lpStatus(gotErr); gs != ws {
				t.Fatalf("problem %d (start %v): revised %v (%v), tableau %v", i, start != nil, gs, gotErr, ws)
			}
			if ws == StatusOptimal && math.Abs(got.Objective-want[i].Objective) > 1e-9*(1+math.Abs(want[i].Objective)) {
				t.Fatalf("problem %d (start %v): revised objective %.17g, tableau %.17g", i, start != nil, got.Objective, want[i].Objective)
			}
			return got
		}
		solve(0, nil)
		start := rs.CaptureBasis()
		for i := 1; i < len(probs); i++ {
			solve(i, start)
			solve(i, nil)
		}
		last := len(probs) - 1
		first := solve(last, start)
		solve(0, nil)
		again := solve(last, start)
		if first == nil {
			return
		}
		if again.Objective != first.Objective {
			t.Fatalf("problem %d re-solved from the same start: objective %.17g, then %.17g", last, first.Objective, again.Objective)
		}
		for j := range first.X {
			if again.X[j] != first.X[j] {
				t.Fatalf("problem %d re-solved from the same start: x[%d] = %.17g, then %.17g", last, j, first.X[j], again.X[j])
			}
		}
	})
}

// TestRevisedIgnoresMismatchedStart checks the WarmBasis contract: a start
// whose signature does not match the problem is ignored, so the solve runs
// exactly as it does from the crash basis.
func TestRevisedIgnoresMismatchedStart(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomBoundedLP(rng, 5, 4)
	if _, err := Solve(p); err != nil {
		t.Skip("random LP infeasible under this seed")
	}
	rs := NewRevisedSolver()
	if _, err := rs.Solve(randomBoundedLP(rng, 4, 4), nil); err != nil {
		t.Skip("foreign LP infeasible under this seed")
	}
	foreign := rs.CaptureBasis()
	if foreign == nil {
		t.Fatal("no basis captured from a revised-path solve")
	}
	ref := NewRevisedSolver()
	want, err := ref.Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := rs.Stats()
	got, err := rs.Solve(p, foreign)
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.Delta(rs.Stats(), before); d != ref.Stats() {
		t.Fatalf("solve from a mismatched start counted %+v, from the crash basis %+v", d, ref.Stats())
	}
	if got.Objective != want.Objective {
		t.Fatalf("objective %.17g from a mismatched start, %.17g from the crash basis", got.Objective, want.Objective)
	}
	for j := range want.X {
		if got.X[j] != want.X[j] {
			t.Fatalf("x[%d] = %.17g from a mismatched start, %.17g from the crash basis", j, got.X[j], want.X[j])
		}
	}
}
