package planner

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
)

// randomSetting draws a D-FACTS setting uniformly from the device box and
// expands it to a full reactance vector.
func randomSetting(n *grid.Network, rng *rand.Rand) []float64 {
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
	}
	return n.ExpandDFACTS(xd)
}

// TestGammaServedMatchesSelect pins the one-engine contract on ieee118:
// /v1/gamma against the nominal reactances answers, bit for bit, the γ a
// selection with x_old = nominal reports for its own reactances, whether
// the request names the exact backend or its sketch alias.
func TestGammaServedMatchesSelect(t *testing.T) {
	if testing.Short() {
		t.Skip("ieee118 selections in -short mode")
	}
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{})
	for _, gb := range []string{"exact", "sketch"} {
		sel, err := p.Select(SelectRequest{
			Case: "ieee118", GammaThreshold: 0.05, XOld: n.Reactances(),
			Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20, GammaBackend: gb,
		})
		if err != nil {
			t.Fatalf("%s select: %v", gb, err)
		}
		g, err := p.Gamma(GammaRequest{Case: "ieee118", XNew: sel.Reactances})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(g.Gamma) != math.Float64bits(sel.Gamma) {
			t.Errorf("%s: /v1/gamma served %v, the selection reported %v", gb, g.Gamma, sel.Gamma)
		}
	}
}

// TestGammaConcurrentDistinctSettings pins the cached nominal evaluator
// under concurrency (run with -race): 16 goroutines requesting distinct
// settings on one case share its pooled workspaces and each gets
// core.Gamma's bits.
func TestGammaConcurrentDistinctSettings(t *testing.T) {
	const caseName, workers = "ieee57", 16
	n, err := grid.CaseByName(caseName)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	settings := make([][]float64, workers)
	for i := range settings {
		settings[i] = randomSetting(n, rng)
	}
	p := New(Config{})
	got := make([]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := p.Gamma(GammaRequest{Case: caseName, XNew: settings[i]})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			if resp.Source != SourceComputed {
				t.Errorf("worker %d: source %q, want a computation", i, resp.Source)
			}
			got[i] = resp.Gamma
		}(i)
	}
	wg.Wait()
	for i, x := range settings {
		if want := core.Gamma(n, n.Reactances(), x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("worker %d: served γ %v, core.Gamma %v", i, got[i], want)
		}
	}
}

// TestGammaRejectsInvalidReactances pins input validation: a reactance
// that is zero, negative, NaN or infinite, in /v1/gamma's x_old or x_new
// or in a selection's x_old, returns ErrInvalidReactance before the memo,
// so nothing is memoized or written to disk.
func TestGammaRejectsInvalidReactances(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Disk: openDisk(t, t.TempDir())})
	l := n.DFACTSIndices()[0]
	for _, tc := range []struct {
		name string
		v    float64
	}{
		{"zero", 0}, {"negative", -0.05}, {"NaN", math.NaN()}, {"+Inf", math.Inf(1)},
	} {
		bad := n.Reactances()
		bad[l] = tc.v
		reqs := map[string]func() error{
			"gamma x_new": func() error {
				_, err := p.Gamma(GammaRequest{Case: "ieee57", XNew: bad})
				return err
			},
			"gamma x_old": func() error {
				_, err := p.Gamma(GammaRequest{Case: "ieee57", XOld: bad, XNew: n.Reactances()})
				return err
			},
			"select x_old": func() error {
				_, err := p.Select(SelectRequest{Case: "ieee57", GammaThreshold: 0.05, XOld: bad, Starts: 1, Seed: 1})
				return err
			},
		}
		for field, call := range reqs {
			if err := call(); !errors.Is(err, ErrInvalidReactance) {
				t.Errorf("%s %s: error %v, want ErrInvalidReactance", tc.name, field, err)
			}
		}
	}
	if st := p.Stats(); st.ResultMisses != 0 || st.Disk.Writes != 0 {
		t.Errorf("rejected requests reached the memo: %d misses, %d disk writes", st.ResultMisses, st.Disk.Writes)
	}
}

// TestRejectsTooManyAttacks pins the attack bound: a select or day-sweep
// request with more than MaxAttacks attacks returns ErrTooManyAttacks
// before the memo, so nothing is sampled, memoized or written to disk,
// while MaxAttacks itself is served.
func TestRejectsTooManyAttacks(t *testing.T) {
	p := New(Config{Disk: openDisk(t, t.TempDir())})
	if _, err := p.Select(SelectRequest{Case: "ieee118", GammaThreshold: 0.05, Attacks: 2000000000}); !errors.Is(err, ErrTooManyAttacks) {
		t.Errorf("select with 2e9 attacks: error %v, want ErrTooManyAttacks", err)
	}
	if _, err := p.DaySweep(DaySweepRequest{Case: "ieee118", Attacks: MaxAttacks + 1}); !errors.Is(err, ErrTooManyAttacks) {
		t.Errorf("day sweep with %d attacks: error %v, want ErrTooManyAttacks", MaxAttacks+1, err)
	}
	if st := p.Stats(); st.ResultMisses != 0 || st.Disk.Writes != 0 {
		t.Errorf("rejected requests reached the memo: %d misses, %d disk writes", st.ResultMisses, st.Disk.Writes)
	}
	req := quickSelect(0.1)
	req.Attacks = MaxAttacks
	if _, err := p.Select(req); err != nil {
		t.Errorf("select with MaxAttacks attacks: %v", err)
	}
}

// TestRejectsInvalidLoad pins load validation: a select load_scale or a
// day-sweep peak_load_mw that is negative, NaN or infinite returns
// ErrInvalidLoad before the memo and the case cache, so nothing is
// computed, memoized, written to disk or given a case-LRU slot.
func TestRejectsInvalidLoad(t *testing.T) {
	p := New(Config{Disk: openDisk(t, t.TempDir())})
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := p.Select(SelectRequest{Case: "ieee57", GammaThreshold: 0.05, LoadScale: v}); !errors.Is(err, ErrInvalidLoad) {
			t.Errorf("select load_scale %v: error %v, want ErrInvalidLoad", v, err)
		}
		if _, err := p.DaySweep(DaySweepRequest{Case: "ieee57", PeakLoadMW: v}); !errors.Is(err, ErrInvalidLoad) {
			t.Errorf("day sweep peak_load_mw %v: error %v, want ErrInvalidLoad", v, err)
		}
	}
	if st := p.Stats(); st.ResultMisses != 0 || st.Disk.Writes != 0 || st.CaseMisses != 0 {
		t.Errorf("rejected requests reached the memo: %d misses, %d disk writes, %d case misses",
			st.ResultMisses, st.Disk.Writes, st.CaseMisses)
	}
}

// TestRejectsOversizedBudgets pins the budget bounds: each of select
// starts and max_evals, and day-sweep iterations, starts, opf_starts and
// hours, one past its bound returns ErrBudgetTooLarge before the memo,
// while the bound itself passes validation.
func TestRejectsOversizedBudgets(t *testing.T) {
	p := New(Config{Disk: openDisk(t, t.TempDir())})
	sel := SelectRequest{Case: "ieee57", GammaThreshold: 0.05}
	day := DaySweepRequest{Case: "ieee57"}
	tooMany := make([]int, MaxHours+1)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"select starts", func() error { r := sel; r.Starts = MaxStarts + 1; _, err := p.Select(r); return err }},
		{"select max_evals", func() error { r := sel; r.MaxEvals = MaxEvals + 1; _, err := p.Select(r); return err }},
		{"day iterations", func() error { r := day; r.Iterations = MaxIterations + 1; _, err := p.DaySweep(r); return err }},
		{"day starts", func() error { r := day; r.Starts = MaxStarts + 1; _, err := p.DaySweep(r); return err }},
		{"day opf_starts", func() error { r := day; r.OPFStarts = MaxStarts + 1; _, err := p.DaySweep(r); return err }},
		{"day hours", func() error { r := day; r.Hours = tooMany; _, err := p.DaySweep(r); return err }},
	} {
		if err := tc.call(); !errors.Is(err, ErrBudgetTooLarge) {
			t.Errorf("%s past its bound: error %v, want ErrBudgetTooLarge", tc.name, err)
		}
	}
	if st := p.Stats(); st.ResultMisses != 0 || st.Disk.Writes != 0 {
		t.Errorf("rejected requests reached the memo: %d misses, %d disk writes", st.ResultMisses, st.Disk.Writes)
	}
	for _, err := range []error{
		checkBudget("starts", MaxStarts, MaxStarts), checkBudget("max_evals", MaxEvals, MaxEvals),
		checkBudget("iterations", MaxIterations, MaxIterations), checkBudget("hours", MaxHours, MaxHours),
	} {
		if err != nil {
			t.Errorf("a budget at its bound was rejected: %v", err)
		}
	}
}

// TestRejectsOutOfDomain pins the domain checks: an alpha outside (0, 1),
// a negative or non-finite sigma, and a negative count return
// ErrOutOfDomain before the memo, while 0 (unset) and in-domain values
// pass validation.
func TestRejectsOutOfDomain(t *testing.T) {
	p := New(Config{Disk: openDisk(t, t.TempDir())})
	sel := SelectRequest{Case: "ieee57", GammaThreshold: 0.05}
	day := DaySweepRequest{Case: "ieee57"}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"select alpha -0.5", func() error { r := sel; r.Alpha = -0.5; _, err := p.Select(r); return err }},
		{"select alpha 1", func() error { r := sel; r.Alpha = 1; _, err := p.Select(r); return err }},
		{"select alpha 2", func() error { r := sel; r.Alpha = 2; _, err := p.Select(r); return err }},
		{"select alpha NaN", func() error { r := sel; r.Alpha = math.NaN(); _, err := p.Select(r); return err }},
		{"select sigma -1", func() error { r := sel; r.Sigma = -1; _, err := p.Select(r); return err }},
		{"select sigma +Inf", func() error { r := sel; r.Sigma = math.Inf(1); _, err := p.Select(r); return err }},
		{"select sigma NaN", func() error { r := sel; r.Sigma = math.NaN(); _, err := p.Select(r); return err }},
		{"select starts", func() error { r := sel; r.Starts = -1; _, err := p.Select(r); return err }},
		{"select attacks", func() error { r := sel; r.Attacks = -5; _, err := p.Select(r); return err }},
		{"select max_evals", func() error { r := sel; r.MaxEvals = -10; _, err := p.Select(r); return err }},
		{"day iterations", func() error { r := day; r.Iterations = -3; _, err := p.DaySweep(r); return err }},
		{"day attacks", func() error { r := day; r.Attacks = -1; _, err := p.DaySweep(r); return err }},
		{"day starts", func() error { r := day; r.Starts = -1; _, err := p.DaySweep(r); return err }},
		{"day opf_starts", func() error { r := day; r.OPFStarts = -1; _, err := p.DaySweep(r); return err }},
		{"placement devices", func() error {
			_, err := p.Placement(PlacementRequest{Case: "ieee57", Devices: -3})
			return err
		}},
	} {
		if err := tc.call(); !errors.Is(err, ErrOutOfDomain) {
			t.Errorf("%s: error %v, want ErrOutOfDomain", tc.name, err)
		}
	}
	if st := p.Stats(); st.ResultMisses != 0 || st.Disk.Writes != 0 || st.CaseMisses != 0 {
		t.Errorf("rejected requests reached the memo: %d misses, %d disk writes, %d case misses",
			st.ResultMisses, st.Disk.Writes, st.CaseMisses)
	}
	if err := errors.Join(checkStatistics(0, 0), checkStatistics(0.0015, 5e-4), checkCount("attacks", 0)); err != nil {
		t.Errorf("an in-domain value was rejected: %v", err)
	}
}
