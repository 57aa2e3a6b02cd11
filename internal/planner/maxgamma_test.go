package planner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/metrics"
	"gridmtd/internal/opf"
)

// explicitPureMaxGammaLookups is the number of dispatch LPs (solve-memo
// hits plus misses) the explicit-x_old request below asked for while it
// still ran a problem-(4) search at γ_th = 0 and threw the result away.
// Every point of that search was a memo hit of the baseline OPF, so its
// full LP solves were the same 49 either way.
const explicitPureMaxGammaLookups = 155

// TestPureMaxGammaSkipsSearch pins that a pure max-γ select (max_gamma
// set, γ_th ≤ 0) serves the bytes in testdata on both the nominal and the
// explicit x_old path, and that neither path asks for the dispatch LPs of
// a discarded problem-(4) search: both run the scenario sweep with an
// empty γ grid, so the max-γ cap is the only search.
func TestPureMaxGammaSkipsSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ieee57 max-γ selections")
	}
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		xOld []float64
	}{{"nominal", nil}, {"explicit", n.Reactances()}} {
		t.Run(tc.name, func(t *testing.T) {
			before := opf.GlobalSolveCacheStats()
			resp, err := New(Config{}).Select(SelectRequest{
				Case: "ieee57", MaxGamma: true, XOld: tc.xOld,
				Starts: 2, MaxEvals: 40, Seed: 1, Attacks: 50,
			})
			if err != nil {
				t.Fatal(err)
			}
			d := metrics.Delta(opf.GlobalSolveCacheStats(), before)
			resp.CacheHit, resp.Source, resp.ElapsedMS = false, "", 0
			got, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "pure_max_gamma_"+tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("response drifted:\n got %s\nwant %s", got, want)
			}
			if lookups := d.Hits + d.Misses; lookups >= explicitPureMaxGammaLookups {
				t.Errorf("%d dispatch LP lookups, want fewer than %d", lookups, explicitPureMaxGammaLookups)
			}
		})
	}
}
