package planner

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/metrics"
	"gridmtd/internal/opf"
	"gridmtd/internal/scenario"
)

func quickSelect(th float64) SelectRequest {
	return SelectRequest{
		Case:           "ieee14",
		GammaThreshold: th,
		Starts:         2,
		Seed:           1,
		Attacks:        50,
	}
}

// TestSelectMemoized pins the service contract: the second identical
// request is a cache hit with the same numbers, orders of magnitude
// faster than the first.
func TestSelectMemoized(t *testing.T) {
	p := New(Config{})
	first, err := p.Select(quickSelect(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first request reported a cache hit")
	}
	start := time.Now()
	second, err := p.Select(quickSelect(0.1))
	warm := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second identical request missed the memo")
	}
	if first.Source != SourceComputed || second.Source != SourceMemo {
		t.Errorf("sources %q / %q, want %q / %q", first.Source, second.Source, SourceComputed, SourceMemo)
	}
	f, s := *first, *second
	f.CacheHit, s.CacheHit = false, false
	f.Source, s.Source = "", ""
	if !reflect.DeepEqual(f, s) {
		t.Errorf("memoized response differs:\nfirst  %+v\nsecond %+v", f, s)
	}
	// The cold request runs a multi-start search (milliseconds at best);
	// the warm one is a map lookup. 10x is the acceptance bar, the real
	// ratio is far larger.
	if cold := time.Duration(first.ElapsedMS * float64(time.Millisecond)); warm > cold/10 {
		t.Errorf("warm request took %v, cold compute %v — expected >= 10x faster", warm, cold)
	}
}

// TestSelectGammaBackendNormalizedAndReported pins the γ-backend alias
// contract on ieee118: "", "exact", "sparse" and "sketch" all name the
// exact evaluator, so the same request under each gives the same γ, cost
// and η′ bits from one memo entry, reports "exact", and bumps the served
// counter of the name it sent. A bogus name is rejected before it can
// occupy an LRU slot and counts nowhere.
func TestSelectGammaBackendNormalizedAndReported(t *testing.T) {
	p := New(Config{})
	req := SelectRequest{
		Case: "ieee118", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
	}
	var first *SelectResponse
	for _, name := range []string{"", "exact", "sparse", "Sketch"} {
		req.GammaBackend = name
		resp, err := p.Select(req)
		if err != nil {
			t.Fatalf("gamma_backend %q: %v", name, err)
		}
		if resp.GammaBackend != "exact" {
			t.Errorf("gamma_backend %q: served by %q, want exact", name, resp.GammaBackend)
		}
		if first == nil {
			first = resp
			continue
		}
		if !resp.CacheHit {
			t.Errorf("gamma_backend %q missed the memo", name)
		}
		same := math.Float64bits(resp.Gamma) == math.Float64bits(first.Gamma) &&
			math.Float64bits(resp.CostPerHour) == math.Float64bits(first.CostPerHour) &&
			len(resp.Eta) == len(first.Eta)
		for i := 0; same && i < len(resp.Eta); i++ {
			same = math.Float64bits(resp.Eta[i]) == math.Float64bits(first.Eta[i])
		}
		if !same {
			t.Errorf("gamma_backend %q: γ %v cost %v η′ %v, want %v / %v / %v",
				name, resp.Gamma, resp.CostPerHour, resp.Eta, first.Gamma, first.CostPerHour, first.Eta)
		}
	}
	req.GammaBackend = "bogus"
	if _, err := p.Select(req); err == nil {
		t.Error("bogus gamma backend accepted")
	}
	st := p.Stats()
	if st.ResultMisses != 1 || st.ResultHits != 3 {
		t.Errorf("memo misses=%d hits=%d, want one entry serving all four names", st.ResultMisses, st.ResultHits)
	}
	if st.GammaExactServed != 2 || st.GammaSparseServed != 1 || st.GammaSketchServed != 1 {
		t.Errorf("served counters exact=%d sparse=%d sketch=%d, want 2/1/1 (errors must not count)",
			st.GammaExactServed, st.GammaSparseServed, st.GammaSketchServed)
	}
}

// TestSelectMatchesScenarioSweep pins request/CLI parity: a selection
// request is exactly one mtdscan sweep point (both run the same
// scenario), so the served numbers must match the sweep's row, with the
// nominal and with an explicit attacker knowledge.
func TestSelectMatchesScenarioSweep(t *testing.T) {
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	explicit := quickSelect(0.1)
	explicit.XOld = n.Reactances()
	for _, req := range []SelectRequest{quickSelect(0.1), explicit} {
		resp, err := New(Config{}).Select(req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.NewRunner().Run(scenario.Spec{
			Kind:         scenario.GammaSweep,
			Case:         req.Case,
			XOld:         req.XOld,
			GammaGrid:    []float64{req.GammaThreshold},
			SelectStarts: req.Starts,
			Seed:         req.Seed,
			OPFStarts:    req.Starts,
			OPFSeed:      req.Seed,
			Effectiveness: core.EffectivenessConfig{
				NumAttacks: req.Attacks, Seed: req.Seed,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		row := res.Rows[0]
		if resp.Gamma != row.Gamma || resp.CostIncrease != row.CostIncrease {
			t.Errorf("x_old %v: served (γ=%v, cost=%v) != sweep row (γ=%v, cost=%v)",
				req.XOld != nil, resp.Gamma, resp.CostIncrease, row.Gamma, row.CostIncrease)
		}
		if !reflect.DeepEqual(resp.Eta, row.Eta) || !reflect.DeepEqual(resp.Reactances, row.Reactances) {
			t.Errorf("x_old %v: served (η' %v, x %v) != sweep row (η' %v, x %v)",
				req.XOld != nil, resp.Eta, resp.Reactances, row.Eta, row.Reactances)
		}
	}
}

// TestConcurrentSelects exercises the shared-case concurrency: distinct
// thresholds on one case run concurrently against the same cached network
// and dispatch engine (the race detector guards the sharing rules).
func TestConcurrentSelects(t *testing.T) {
	p := New(Config{})
	thresholds := []float64{0.05, 0.1, 0.15, 0.2}
	var wg sync.WaitGroup
	errs := make([]error, len(thresholds))
	resps := make([]*SelectResponse, len(thresholds))
	for i, th := range thresholds {
		wg.Add(1)
		go func(i int, th float64) {
			defer wg.Done()
			resps[i], errs[i] = p.Select(quickSelect(th))
		}(i, th)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("threshold %v: %v", thresholds[i], err)
		}
	}
	// Each must equal its serial recomputation.
	serial := New(Config{})
	for i, th := range thresholds {
		want, err := serial.Select(quickSelect(th))
		if err != nil {
			t.Fatal(err)
		}
		if resps[i].Gamma != want.Gamma || !reflect.DeepEqual(resps[i].Eta, want.Eta) {
			t.Errorf("threshold %v: concurrent (γ=%v) != serial (γ=%v)", th, resps[i].Gamma, want.Gamma)
		}
	}
	st := p.Stats()
	if st.CaseMisses != 1 || st.CaseHits != int64(len(thresholds)-1) {
		t.Errorf("case LRU stats = %+v, want 1 miss / %d hits", st, len(thresholds)-1)
	}
}

// TestSelectExplicitXOld serves a request whose attacker knowledge is the
// nominal configuration, and cross-checks the achieved γ with a direct
// evaluation.
func TestSelectExplicitXOld(t *testing.T) {
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{})
	resp, err := p.Select(SelectRequest{
		Case:           "ieee14",
		GammaThreshold: 0.2,
		XOld:           n.Reactances(),
		Starts:         2,
		Seed:           1,
		Attacks:        50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Gamma(n, n.Reactances(), resp.Reactances); got < 0.2-2e-3 {
		t.Errorf("served selection achieves γ=%v against nominal knowledge, want >= 0.2", got)
	}
}

// TestSelectErrors pins the error surface: unknown cases, unreachable
// thresholds without fallback, bad x_old lengths.
func TestSelectErrors(t *testing.T) {
	p := New(Config{})
	if _, err := p.Select(SelectRequest{Case: "nope", GammaThreshold: 0.1}); err == nil {
		t.Error("unknown case accepted")
	}
	if _, err := p.Select(quickSelect(5.0)); !errors.Is(err, ErrUnreachable) {
		t.Errorf("unreachable threshold returned %v, want ErrUnreachable", err)
	}
	// A wrong-length x_old fails before any dispatch LP is asked for.
	before := opf.GlobalSolveCacheStats()
	if _, err := p.Select(SelectRequest{Case: "ieee14", GammaThreshold: 0.1, XOld: []float64{1}}); err == nil {
		t.Error("bad x_old length accepted")
	}
	if d := metrics.Delta(opf.GlobalSolveCacheStats(), before); d.Hits+d.Misses != 0 {
		t.Errorf("bad x_old length asked for %d dispatch LPs, want 0", d.Hits+d.Misses)
	}
}

// TestMaxGammaFallbackFlag pins max_gamma_fallback on the nominal and the
// explicit x_old path alike: with max_gamma every request serves a design,
// and the flag is set only when a positive γ_th was out of reach and the
// max-γ design served instead.
func TestMaxGammaFallbackFlag(t *testing.T) {
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{})
	for _, path := range []struct {
		name string
		xOld []float64
	}{{"nominal", nil}, {"explicit", n.Reactances()}} {
		for _, tc := range []struct {
			name string
			th   float64
			want bool
		}{{"pure max-γ", 0, false}, {"unreachable", 5.0, true}, {"reachable", 0.1, false}} {
			req := quickSelect(tc.th)
			req.MaxGamma, req.XOld = true, path.xOld
			resp, err := p.Select(req)
			if err != nil {
				t.Fatalf("%s, %s: %v", path.name, tc.name, err)
			}
			if resp.Gamma <= 0 {
				t.Errorf("%s, %s: γ = %v, want a design", path.name, tc.name, resp.Gamma)
			}
			if resp.MaxGammaFallback != tc.want {
				t.Errorf("%s, %s: max_gamma_fallback = %v, want %v", path.name, tc.name, resp.MaxGammaFallback, tc.want)
			}
		}
	}
}

// TestGammaRequest pins the γ endpoint against the library evaluation.
func TestGammaRequest(t *testing.T) {
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := n.DFACTSBounds()
	_ = lo
	xNew := n.ExpandDFACTS(hi)
	p := New(Config{})
	resp, err := p.Gamma(GammaRequest{Case: "ieee14", XNew: xNew})
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Gamma(n, n.Reactances(), xNew); resp.Gamma != want {
		t.Errorf("served γ=%v, want %v", resp.Gamma, want)
	}
	second, err := p.Gamma(GammaRequest{Case: "ieee14", XNew: xNew})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second γ request missed the memo")
	}
	if _, err := p.Gamma(GammaRequest{Case: "ieee14", XNew: []float64{1, 2}}); err == nil {
		t.Error("bad x_new length accepted")
	}
}

// TestDaySweepServed runs the service-sized day sweep on the 14-bus case.
func TestDaySweepServed(t *testing.T) {
	if testing.Short() {
		t.Skip("day sweep is expensive")
	}
	p := New(Config{})
	resp, err := p.DaySweep(DaySweepRequest{Case: "ieee14", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hours) != 3 {
		t.Fatalf("got %d hours, want the 3 service-default hours", len(resp.Hours))
	}
	for _, h := range resp.Hours {
		if h.MTDCost < h.BaselineCost {
			t.Errorf("hour %d: MTD cost %v below baseline %v", h.Hour, h.MTDCost, h.BaselineCost)
		}
	}
	second, err := p.DaySweep(DaySweepRequest{Case: "ieee14", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second day-sweep request missed the memo")
	}
}

// TestPlacementServed runs the greedy placement study on the 57-bus case:
// the reachable γ must be monotone in the deployment size, and the full
// 12-device deployment's reach must match the embedded deployment's.
func TestPlacementServed(t *testing.T) {
	if testing.Short() {
		t.Skip("placement probes are expensive")
	}
	p := New(Config{})
	resp, err := p.Placement(PlacementRequest{Case: "ieee57", Devices: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rounds) != 3 {
		t.Fatalf("got %d rounds, want 3", len(resp.Rounds))
	}
	for i, r := range resp.Rounds {
		if len(r.Devices) != i+1 {
			t.Errorf("round %d deployed %v, want %d devices", i+1, r.Devices, i+1)
		}
		if i > 0 && r.Gamma < resp.Rounds[i-1].Gamma-1e-12 {
			t.Errorf("round %d: γ %v below round %d's %v (greedy must be monotone)",
				i+1, r.Gamma, i, resp.Rounds[i-1].Gamma)
		}
	}
}
