package planner

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gridmtd/internal/grid"
)

// TestRequestKeysExact pins the memo key's contract on ieee118: requests
// share a key exactly when every field is bitwise equal (one ulp in one
// reactance is a new key and a new computation; swapped vectors differ;
// nil and empty x_old agree), every kind keeps the case as field 1, and
// keying a γ request stays allocation-light.
func TestRequestKeysExact(t *testing.T) {
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	xOld, xNew := randomSetting(n, rng), randomSetting(n, rng)
	req := GammaRequest{Case: "ieee118", XNew: xNew}

	p := New(Config{})
	if first, err := p.Gamma(req); err != nil {
		t.Fatal(err)
	} else if first.Source != SourceComputed {
		t.Fatalf("first request: source %q, want a computation", first.Source)
	}
	same := GammaRequest{Case: "ieee118", XNew: append([]float64(nil), xNew...)}
	if again, err := p.Gamma(same); err != nil {
		t.Fatal(err)
	} else if again.Source != SourceMemo {
		t.Fatalf("byte-identical request: source %q, want a memo hit", again.Source)
	}
	ulp := append([]float64(nil), xNew...)
	ulp[len(ulp)/2] = math.Nextafter(ulp[len(ulp)/2], math.Inf(1))
	bumped := GammaRequest{Case: "ieee118", XNew: ulp}
	if bumped.key() == req.key() {
		t.Fatal("a one-ulp change in x_new kept the key")
	}
	second, err := p.Gamma(bumped)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != SourceComputed || p.Stats().ResultMisses != 2 {
		t.Errorf("one-ulp request: source %q, %d computations; want a second computation",
			second.Source, p.Stats().ResultMisses)
	}

	if (GammaRequest{Case: "ieee118", XOld: xOld, XNew: xNew}).key() == (GammaRequest{Case: "ieee118", XOld: xNew, XNew: xOld}).key() {
		t.Error("swapping x_old and x_new kept the key")
	}
	if (GammaRequest{Case: "ieee118", XOld: nil, XNew: xNew}).key() != (GammaRequest{Case: "ieee118", XOld: []float64{}, XNew: xNew}).key() {
		t.Error("nil and empty x_old key differently")
	}
	if (SelectRequest{Case: "ieee118", XOld: nil}).key() != (SelectRequest{Case: "ieee118", XOld: []float64{}}).key() {
		t.Error("nil and empty select x_old key differently")
	}

	for _, key := range []string{
		req.key(),
		SelectRequest{Case: "ieee118", GammaThreshold: 0.05, XOld: xOld, Seed: 1}.withDefaults().key(),
		DaySweepRequest{Case: "ieee118", PeakLoadMW: 4242}.withDefaults().key(),
		PlacementRequest{Case: "ieee118", Devices: 3, Pool: []int{1, 2, 30}}.key(),
	} {
		if got := strings.Split(key, "|")[1]; got != "ieee118" {
			t.Errorf("key %.40q…: field 1 is %q, want the case", key, got)
		}
	}

	full := GammaRequest{Case: "ieee118", XOld: xOld, XNew: xNew}
	if allocs := testing.AllocsPerRun(100, func() { _ = full.key() }); allocs > 4 && !raceEnabled {
		t.Errorf("ieee118 γ request key: %v allocations, want at most 4", allocs)
	}
}
