package gridmtd_test

import (
	"fmt"
	"runtime"
	"testing"

	"gridmtd/internal/core"
	"gridmtd/internal/lp"
	"gridmtd/internal/metrics"
	"gridmtd/internal/opf"
	"gridmtd/internal/planner"
)

// coldSelect300SolveCeiling bounds the number of full dispatch LP solves
// one cold ieee300 planner selection may execute. Without the solve memo,
// the Farkas pre-screen and the lazy-penalty skip it ran 179 (PERF.md);
// with them it runs 88, the number of distinct points the search scores,
// on any number of cores: each local search starts with an empty
// Farkas-ray index, so no search's pre-screen depends on which searches
// shared its worker. (It ran 90 while the operating measurements built a
// second dispatch engine, whose seed LP and x_old dispatch re-solved what
// the baseline engine already had.)
// A regression in any of the three — cache keys that stop matching, a
// pre-screen that stops certifying, a skip that stops firing — pushes
// the count back toward 179 and trips this ceiling long before the
// latency budget notices. The ceiling equals the measured count, so any
// extra solve fails it.
const coldSelect300SolveCeiling = 88

// coldSelect118SolveCeiling bounds the cold ieee118 selection the same
// way. ieee118's calibrated branch ratings bind, so its landscape has
// real gradients; the benchmark request measures 65 solves, and the
// ceiling keeps 3 solves of headroom.
const coldSelect118SolveCeiling = 68

// coldSelect runs req on a fresh planner and returns its response and the
// per-request delta of the process-global solve counters
// (lp.RevisedStats.Delta — root-package tests run sequentially, so no
// other selection contributes to the window). It fails the test if the
// selection built a post-MTD estimator or an x_old Gram-Schmidt basis:
// the rank-|S| kernel, prepared from blocked sparse solves, answers every
// γ and scores every attack of both pinned requests.
func coldSelect(t *testing.T, req planner.SelectRequest) (*planner.SelectResponse, lp.RevisedStats, opf.SolveCacheStats) {
	t.Helper()
	lpBefore := lp.GlobalRevisedStats()
	scBefore := opf.GlobalSolveCacheStats()
	estBefore := core.GlobalEstimatorCacheStats()
	basesBefore := core.GammaBasisBuilds()
	p := planner.New(planner.Config{})
	resp, err := p.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	if b := core.GammaBasisBuilds() - basesBefore; b != 0 {
		t.Errorf("%s selection built %d x_old Gram-Schmidt bases, want 0", req.Case, b)
	}
	if est := core.GlobalEstimatorCacheStats(); est.FastBuilds != estBefore.FastBuilds || est.FullQRs != estBefore.FullQRs {
		t.Errorf("%s selection built estimators: %d fast builds, %d full QRs",
			req.Case, est.FastBuilds-estBefore.FastBuilds, est.FullQRs-estBefore.FullQRs)
	}
	return resp, metrics.Delta(lp.GlobalRevisedStats(), lpBefore), metrics.Delta(opf.GlobalSolveCacheStats(), scBefore)
}

// checkPinned asserts the selection's reported cost and γ at the
// precision the benchmark pins them.
func checkPinned(t *testing.T, resp *planner.SelectResponse, cost, gamma string) {
	t.Helper()
	if got := fmt.Sprintf("%.2f", resp.CostPerHour); got != cost {
		t.Errorf("selection cost %s $/h, pinned %s", got, cost)
	}
	if got := fmt.Sprintf("%.4f", resp.Gamma); got != gamma {
		t.Errorf("selection γ %s, pinned %s", got, gamma)
	}
}

// coldSelect300Request is the pinned ieee300 benchmark request.
var coldSelect300Request = planner.SelectRequest{
	Case: "ieee300", GammaThreshold: 0.05,
	Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
	GammaBackend: "sketch",
}

// TestColdSelect300SolveBudget runs one cold ieee300 selection, asserts
// its solve count against the ceiling and pins its answer.
func TestColdSelect300SolveBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping solve-budget assertion in -short mode")
	}
	resp, d, sc := coldSelect(t, coldSelect300Request)
	t.Logf("cold ieee300 selection: %d solves (%d prescreen hits, cache %d hits / %d misses)",
		d.Solves, d.PrescreenHits, sc.Hits, sc.Misses)
	if d.Solves > coldSelect300SolveCeiling {
		t.Errorf("cold ieee300 selection ran %d full dispatch solves, ceiling %d — "+
			"the solve memo, Farkas pre-screen or lazy-penalty skip has regressed",
			d.Solves, coldSelect300SolveCeiling)
	}
	checkPinned(t, resp, "842862.33", "0.0671")
}

// TestColdSelect118SolveBudget is the binding-limits counterpart: the
// benchmark ieee118 selection must stay under its solve ceiling and
// return the pinned answer.
func TestColdSelect118SolveBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping solve-budget assertion in -short mode")
	}
	resp, d, _ := coldSelect(t, planner.SelectRequest{
		Case: "ieee118", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
		GammaBackend: "sketch",
	})
	t.Logf("cold ieee118 selection: %d solves (%d prescreen hits)", d.Solves, d.PrescreenHits)
	if d.Solves > coldSelect118SolveCeiling {
		t.Errorf("cold ieee118 selection ran %d full dispatch solves, ceiling %d",
			d.Solves, coldSelect118SolveCeiling)
	}
	checkPinned(t, resp, "139226.02", "0.0987")
}

// TestColdSelect300SolvesIndependentOfWorkers pins that the pinned
// ieee300 selection runs the same full solves and pre-screen hits whether
// its local searches share one worker or run on two or four.
func TestColdSelect300SolvesIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three ieee300 selections")
	}
	withProcs(t, 1)
	_, serial, _ := coldSelect(t, coldSelect300Request)
	for _, workers := range []int{2, 4} {
		withProcs(t, workers)
		_, parallel, _ := coldSelect(t, coldSelect300Request)
		if serial.Solves != parallel.Solves || serial.PrescreenHits != parallel.PrescreenHits {
			t.Errorf("1 worker: %d solves (%d pre-screen hits); %d workers: %d solves (%d pre-screen hits)",
				serial.Solves, serial.PrescreenHits, workers, parallel.Solves, parallel.PrescreenHits)
		}
	}
}

// withProcs sets GOMAXPROCS, and with it the worker count of every
// fan-out, for the rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
