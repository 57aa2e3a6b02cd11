package optimize

import (
	"math"
	"sync/atomic"
	"testing"
)

// screenBoxes builds the 2-D test box and a concurrency-safe counting
// sphere objective centred at the origin.
func countingSphere(evals *atomic.Int64) Objective {
	return func(x []float64) float64 {
		evals.Add(1)
		s := 0.0
		for _, v := range x {
			s += v * v
		}
		return s
	}
}

// TestMultiStartScreenPrunesLosingRestarts: with an initial point already
// near the optimum, every random restart starts out losing, so the screen
// charges each exactly one evaluation instead of a local-search budget —
// and the winner is bitwise the unscreened winner (it came from the
// initial point both ways).
func TestMultiStartScreenPrunesLosingRestarts(t *testing.T) {
	box := Bounds{Lower: []float64{-10, -10}, Upper: []float64{10, 10}}
	local := func(f Objective, x0 []float64) (*Result, error) {
		return NelderMead(f, x0, NMConfig{MaxEvals: 200})
	}
	run := func(screen bool) (*Result, int64) {
		var evals atomic.Int64
		res, err := MultiStart(countingSphere(&evals), box, local, MSConfig{
			Starts:         5,
			Seed:           3,
			InitialPoints:  [][]float64{{0.05, -0.05}},
			ScreenRestarts: screen,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, evals.Load()
	}
	_, fullEvals := run(false)
	scr, scrEvals := run(true)
	// The screened run still converges from the initial point (all five
	// restarts start out losing and are pruned; on the sphere a pruned
	// restart could only have re-found the same optimum anyway).
	if scr.F > 1e-9 {
		t.Fatalf("screened run failed to converge: %+v", scr)
	}
	// Each pruned restart costs one screen evaluation instead of a
	// local-search budget.
	saved := fullEvals - scrEvals
	if saved < 5*10 {
		t.Fatalf("screen saved only %d evaluations (full %d, screened %d)", saved, fullEvals, scrEvals)
	}
	if scr.Evals != int(scrEvals) {
		t.Fatalf("Result.Evals %d != objective evaluations %d", scr.Evals, scrEvals)
	}
}

// twoBasin has a shallow basin (value 0) around x=1 and a strictly deeper
// one (value -5) around x=-6: a restart landing near the deep basin starts
// below the initial point's optimum, so the screen must admit it.
func twoBasin(x []float64) float64 {
	if x[0] >= -1 {
		return (x[0] - 1) * (x[0] - 1)
	}
	return math.Abs(x[0]+6) - 5
}

// TestMultiStartScreenAdmitsImprovingRestart: the screen is a filter, not
// a cap — a restart whose start point already beats the deterministic
// optimum gets its full local search and can win.
func TestMultiStartScreenAdmitsImprovingRestart(t *testing.T) {
	box := Bounds{Lower: []float64{-8}, Upper: []float64{8}}
	local := func(f Objective, x0 []float64) (*Result, error) {
		return NelderMead(f, x0, NMConfig{MaxEvals: 300})
	}
	res, err := MultiStart(twoBasin, box, local, MSConfig{
		Starts:         6,
		Seed:           1,
		InitialPoints:  [][]float64{{1.5}},
		ScreenRestarts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > -4.9 {
		t.Fatalf("screened multistart missed the deep basin: F=%g at x=%g", res.F, res.X[0])
	}
}

// TestMultiStartScreenWorkerInvariance: the screen bar is fixed at the
// stage barrier, so verdicts — and with them the winner and the total
// evaluation count — are identical for every worker count.
func TestMultiStartScreenWorkerInvariance(t *testing.T) {
	box := Bounds{Lower: []float64{-8, -8}, Upper: []float64{8, 8}}
	obj := func(x []float64) float64 { return twoBasin(x[:1]) + x[1]*x[1] }
	local := func(f Objective, x0 []float64) (*Result, error) {
		return NelderMead(f, x0, NMConfig{MaxEvals: 150})
	}
	var ref *Result
	for _, par := range []int{1, 2, 4} {
		withProcs(t, par)
		res, err := MultiStart(obj, box, local, MSConfig{
			Starts:         8,
			Seed:           7,
			InitialPoints:  [][]float64{{1.5, 0.5}, {2, -1}},
			ScreenRestarts: true,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.F != ref.F || res.Evals != ref.Evals || res.X[0] != ref.X[0] || res.X[1] != ref.X[1] {
			t.Fatalf("parallelism %d result differs: %+v vs %+v", par, res, ref)
		}
	}
}

// TestMultiStartScreenWithoutInitialPointsIsNoop: with nothing to set the
// bar, screening must not change anything.
func TestMultiStartScreenWithoutInitialPointsIsNoop(t *testing.T) {
	box := Bounds{Lower: []float64{-10, -10}, Upper: []float64{10, 10}}
	local := func(f Objective, x0 []float64) (*Result, error) {
		return NelderMead(f, x0, NMConfig{MaxEvals: 100})
	}
	run := func(screen bool) (*Result, int64) {
		var evals atomic.Int64
		res, err := MultiStart(countingSphere(&evals), box, local, MSConfig{
			Starts:         4,
			Seed:           11,
			ScreenRestarts: screen,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, evals.Load()
	}
	a, ae := run(false)
	b, be := run(true)
	if a.F != b.F || ae != be || a.Evals != b.Evals {
		t.Fatalf("screening without initial points changed the run: %+v/%d vs %+v/%d", a, ae, b, be)
	}
}
