package lp

import (
	"errors"
	"math"
	"testing"

	"gridmtd/internal/mat"
)

// fuzzLP decodes a small bounded LP and a few right-hand-side
// perturbations of it from fuzz bytes: at most 6 variables and 6 rows,
// coefficients in [-8, 8) on a 1/16 grid, every variable boxed in a finite
// interval. Bytes past the end read as 0.
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

// FuzzRevisedAgreesWithTableau decodes a small bounded LP and perturbed
// right-hand sides of it. One RevisedSolver warm-solves the base problem
// and then each variant in turn; every answer must carry the flat
// tableau Solver's status and, when optimal, its objective to 1e-9
// relative, and every Farkas pre-screen hit must be an infeasibility the
// tableau confirms. Run it with
//
//	go test -fuzz FuzzRevisedAgreesWithTableau -fuzztime 20s ./internal/lp
func FuzzRevisedAgreesWithTableau(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzLP{data: data}
		rs, flat := NewRevisedSolver(), NewSolver()
		for i, p := range d.decode() {
			hits := rs.Stats().PrescreenHits
			got, gotErr := rs.Solve(p)
			want, wantErr := flat.Solve(p)
			ws := lpStatus(wantErr)
			if ws == 0 {
				t.Skipf("problem %d: tableau solver: %v", i, wantErr)
			}
			if rs.Stats().PrescreenHits > hits && ws != StatusInfeasible {
				t.Fatalf("problem %d: pre-screen rejected a problem the tableau reports %v", i, ws)
			}
			if gs := lpStatus(gotErr); gs != ws {
				t.Fatalf("problem %d: revised %v (%v), tableau %v", i, gs, gotErr, ws)
			}
			if ws == StatusOptimal && math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
				t.Fatalf("problem %d: revised objective %.17g, tableau %.17g", i, got.Objective, want.Objective)
			}
		}
	})
}
