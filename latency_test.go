package gridmtd_test

import (
	"testing"
	"time"

	"gridmtd/internal/planner"
	"gridmtd/internal/planner/diskcache"
)

// coldSelectBudget is 2x the worst cold ieee118 selection latency recorded
// in PERF.md's PR 6 table (103-140 ms on the 1-core reference box at the
// CI smoke point). The headroom absorbs runner noise; a regression back
// toward the 0.6 s tableau-resolve floor still trips it by a wide margin.
const coldSelectBudget = 280 * time.Millisecond

// TestColdSelectLatencyBudget holds the cold 118-bus planner selection —
// fresh planner, nothing memoized, "sketch" γ alias — under its recorded
// latency budget. Best-of-three so a single scheduler hiccup on a shared
// runner doesn't fail the build.
func TestColdSelectLatencyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping latency assertion in -short mode")
	}
	req := planner.SelectRequest{
		Case: "ieee118", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
		GammaBackend: "sketch",
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		p := planner.New(planner.Config{})
		start := time.Now()
		if _, err := p.Select(req); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		if best <= coldSelectBudget {
			break
		}
	}
	t.Logf("cold ieee118 selection: best %v (budget %v)", best, coldSelectBudget)
	if best > coldSelectBudget {
		t.Errorf("cold ieee118 selection took %v, budget %v — the crash-basis/"+
			"partial-PTDF cold path has regressed", best, coldSelectBudget)
	}
}

// coldSelect300Budget is 2x the best cold ieee300 selection recorded in
// PERF.md's PR 8 table (~0.89 s on the 1-core reference box, down from
// ~1.2 s at PR 7 via the dispatch-solve memo, the Farkas pre-screen and
// the screened restarts). A regression in any stage — the pricing, the
// estimator reuse or the solve-volume cuts — lands well above this line.
const coldSelect300Budget = 1800 * time.Millisecond

// TestColdSelect300LatencyBudget holds the cold 300-bus planner selection
// under its recorded budget, best-of-three like the 118-bus assertion.
func TestColdSelect300LatencyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping latency assertion in -short mode")
	}
	req := planner.SelectRequest{
		Case: "ieee300", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
		GammaBackend: "sketch",
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		p := planner.New(planner.Config{})
		start := time.Now()
		if _, err := p.Select(req); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		if best <= coldSelect300Budget {
			break
		}
	}
	t.Logf("cold ieee300 selection: best %v (budget %v)", best, coldSelect300Budget)
	if best > coldSelect300Budget {
		t.Errorf("cold ieee300 selection took %v, budget %v — a PR 7/PR 8 stage "+
			"(pricing, estimator reuse, solve memo, pre-screen, "+
			"restart screen) has regressed", best, coldSelect300Budget)
	}
}

// diskServeBudget is the PR 9 restart contract: a daemon restarted over
// its cache directory serves a previously computed ieee300 selection from
// disk in under 10 ms — no search, no LP, just a read, a JSON decode and
// a key check. The actual cost is microsecond-class; the budget absorbs a
// cold page cache on a loaded runner.
const diskServeBudget = 10 * time.Millisecond

// TestRestartServesIeee300FromDisk computes the benchmark ieee300
// selection once into a disk cache, then simulates a daemon restart (a
// fresh planner over the same directory, empty memo, cold engines) and
// requires the warm serve to come from disk, bitwise-equal, inside the
// budget. Best-of-three on the timing only — the source and payload
// assertions are unconditional.
func TestRestartServesIeee300FromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping latency assertion in -short mode")
	}
	dir := t.TempDir()
	open := func() *diskcache.Cache {
		d, err := diskcache.Open(diskcache.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	req := planner.SelectRequest{
		Case: "ieee300", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
		GammaBackend: "sketch",
	}
	cold, err := planner.New(planner.Config{Disk: open()}).Select(req)
	if err != nil {
		t.Fatal(err)
	}
	best := time.Duration(1<<63 - 1)
	var warm *planner.SelectResponse
	for i := 0; i < 3; i++ {
		p := planner.New(planner.Config{Disk: open()})
		start := time.Now()
		warm, err = p.Select(req)
		if d := time.Since(start); d < best {
			best = d
		}
		if err != nil {
			t.Fatal(err)
		}
		if warm.Source != planner.SourceDisk {
			t.Fatalf("restarted planner served source %q, want %q — it re-solved", warm.Source, planner.SourceDisk)
		}
		if best <= diskServeBudget {
			break
		}
	}
	c, w := *cold, *warm
	c.CacheHit, w.CacheHit = false, false
	c.Source, w.Source = "", ""
	c.ElapsedMS, w.ElapsedMS = 0, 0
	if c.Gamma != w.Gamma || c.CostIncrease != w.CostIncrease {
		t.Errorf("disk-served selection differs: γ %v vs %v, cost %v vs %v",
			w.Gamma, c.Gamma, w.CostIncrease, c.CostIncrease)
	}
	t.Logf("restart-warm ieee300 selection: best %v (budget %v, cold compute %.0f ms)",
		best, diskServeBudget, cold.ElapsedMS)
	if best > diskServeBudget {
		t.Errorf("restarted daemon took %v to serve the cached ieee300 selection, budget %v",
			best, diskServeBudget)
	}
}
