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
