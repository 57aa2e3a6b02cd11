package core

import (
	"math"
	"testing"

	"gridmtd/internal/dcflow"
	"gridmtd/internal/grid"
	"gridmtd/internal/metrics"
	"gridmtd/internal/opf"
)

// referenceMeasurements is the operating measurement vector computed the
// way it was before the engine form existed: a dispatch OPF on a fresh
// engine, then a separate DC power flow on a fresh factorizer.
func referenceMeasurements(t *testing.T, n *grid.Network, x []float64) []float64 {
	t.Helper()
	res, err := opf.SolveDispatch(n, x)
	if err != nil {
		t.Fatal(err)
	}
	inj := n.InjectionsMW(res.DispatchMW)
	fl, err := dcflow.Solve(n, x, inj)
	if err != nil {
		t.Fatal(err)
	}
	return dcflow.Measurements(n, inj, fl)
}

// TestOperatingMeasurementsWithMatchesReference pins the engine form of
// OperatingMeasurements bitwise to the fresh-engine dispatch plus separate
// power flow, on every registered IEEE case, at the baseline OPF's optimum
// and at an explicit x_old. At the optimum a sparse engine answers from
// its solve memo: no new dispatch solve runs.
func TestOperatingMeasurementsWithMatchesReference(t *testing.T) {
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118", "ieee300"} {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := opf.NewDispatchEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{Starts: 1, MaxEvals: 30, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := n.DFACTSBounds()
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = 0.25*lo[i] + 0.75*hi[i]
		}
		for _, tc := range []struct {
			label string
			x     []float64
		}{{"baseline optimum", pre.Reactances}, {"explicit x_old", n.ExpandDFACTS(xd)}} {
			before := opf.GlobalSolveCacheStats()
			got, err := OperatingMeasurementsWith(eng, tc.x)
			if err != nil {
				t.Fatal(err)
			}
			misses := metrics.Delta(opf.GlobalSolveCacheStats(), before).Misses
			if tc.label == "baseline optimum" && eng.Backend() == grid.SparseBackend && misses != 0 {
				t.Errorf("%s %s: %d dispatch solves, want a memo hit", name, tc.label, misses)
			}
			wrapped, err := OperatingMeasurements(n, tc.x)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceMeasurements(t, n, tc.x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
					math.Float64bits(wrapped[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %s: z[%d] engine %v, wrapper %v, reference %v",
						name, tc.label, i, got[i], wrapped[i], want[i])
				}
			}
		}
	}
}
