package opf

import (
	"errors"
	"math/rand"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/metrics"
)

// TestPrescreen300ProbesConfirmedByFreshSolve drives the Farkas screen on
// the case it was built for: random D-FACTS probes on ieee300 through one
// session (pooled solves start with an empty ray index), re-probed with
// tiny perturbations so recycled rays actually fire, and every
// infeasible verdict — screened or fully solved — re-checked on a fresh
// engine whose solver holds no rays and no cache entry for the candidate.
// This is the end-to-end face of the lp package's screen-rejection
// property test.
func TestPrescreen300ProbesConfirmedByFreshSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping ieee300 prescreen probes in -short mode")
	}
	n, err := grid.CaseByName("ieee300")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession()
	lo, hi := n.DFACTSBounds()
	rng := rand.New(rand.NewSource(9))
	before := lp.GlobalRevisedStats()

	type verdict struct {
		x          []float64
		infeasible bool
	}
	var probes []verdict
	for i := 0; i < 25; i++ {
		xd := make([]float64, len(lo))
		for j := range xd {
			xd[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		x := n.ExpandDFACTS(xd)
		_, err := sess.Cost(x)
		if err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("probe %d: unexpected error: %v", i, err)
		}
		probes = append(probes, verdict{x: x, infeasible: err != nil})
		if err != nil {
			// Re-probe a hair away: same structural cause, different
			// bits — the recycled ray, not the memo, must answer.
			xd2 := append([]float64(nil), xd...)
			xd2[0] *= 1 + 1e-9
			x2 := n.ExpandDFACTS(xd2)
			_, err2 := sess.Cost(x2)
			probes = append(probes, verdict{x: x2, infeasible: err2 != nil})
		}
	}
	d := metrics.Delta(lp.GlobalRevisedStats(), before)
	if d.InfeasibleSolves == 0 {
		t.Fatal("probe sequence produced no infeasible candidates; widen the sampling")
	}
	if d.PrescreenHits == 0 {
		t.Fatal("probe sequence never exercised the Farkas screen")
	}
	t.Logf("probes: %d full infeasible solves, %d prescreen hits", d.InfeasibleSolves, d.PrescreenHits)

	// Confirm every infeasible verdict on a ray-free, cache-cold engine.
	confirmed := 0
	for i, p := range probes {
		if !p.infeasible || confirmed >= 6 {
			continue
		}
		fresh, err := NewDispatchEngineBackend(n, grid.SparseBackend)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Solve(p.x); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("probe %d: screened/solved infeasible but fresh engine says %v", i, err)
		}
		confirmed++
	}
	if confirmed == 0 {
		t.Fatal("no infeasible probes to confirm")
	}
}
