package scenario

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
)

// withProcs sets GOMAXPROCS, and with it the worker count of every
// fan-out, for the rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func sweepSpec(caseName string) Spec {
	return Spec{
		Kind:          GammaSweep,
		Case:          caseName,
		GammaGrid:     []float64{0.05, 0.1},
		SelectStarts:  2,
		MaxEvals:      30,
		Seed:          1,
		OPFStarts:     2,
		OPFMaxEvals:   30,
		OPFSeed:       1,
		Effectiveness: core.EffectivenessConfig{NumAttacks: 30, Seed: 1},
	}
}

// TestGammaSweepDeterministic pins the scenario determinism contract on
// both backend paths: the same Spec and seed produce identical rows
// across runs and across worker counts (dense = the historical bitwise
// path; sparse = the seeded revised-simplex path whose per-worker
// sessions drop their Farkas rays at every local search).
func TestGammaSweepDeterministic(t *testing.T) {
	for _, caseName := range []string{"ieee14", "ieee57"} {
		t.Run(caseName, func(t *testing.T) {
			withProcs(t, 1)
			serial, err := NewRunner().Run(sweepSpec(caseName))
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Rows) != 2 {
				t.Fatalf("got %d rows, want 2", len(serial.Rows))
			}
			again, err := NewRunner().Run(sweepSpec(caseName))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Rows, again.Rows) {
				t.Error("same Spec + seed produced different rows across runs")
			}
			for _, workers := range []int{2, 4} {
				withProcs(t, workers)
				par, err := NewRunner().Run(sweepSpec(caseName))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial.Rows, par.Rows) {
					t.Errorf("parallelism %d produced different rows than serial", workers)
				}
			}
		})
	}
}

// TestPlacementDeterministic pins the placement study's worker-count
// invariance: the greedy choice and its γ are identical at any
// GOMAXPROCS, on both backend paths.
func TestPlacementDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("placement probes are expensive")
	}
	for _, caseName := range []string{"ieee14", "ieee57"} {
		t.Run(caseName, func(t *testing.T) {
			spec := Spec{Kind: Placement, Case: caseName, Placement: PlacementSpec{Devices: 3}}
			withProcs(t, 1)
			serial, err := NewRunner().Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Rows) != 3 {
				t.Fatalf("got %d rounds, want 3", len(serial.Rows))
			}
			for _, workers := range []int{3, 4} {
				withProcs(t, workers)
				par, err := NewRunner().Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial.Rows, par.Rows) {
					t.Errorf("placement at %d workers differs from serial:\nserial %+v\npar    %+v", workers, serial.Rows, par.Rows)
				}
			}
			// Greedy γ must be monotone in the deployment size.
			for i := 1; i < len(serial.Rows); i++ {
				if serial.Rows[i].Gamma < serial.Rows[i-1].Gamma-1e-12 {
					t.Errorf("round %d γ %v below round %d γ %v", i+1, serial.Rows[i].Gamma, i, serial.Rows[i-1].Gamma)
				}
			}
		})
	}
}

// TestPlacementAllBranchesPool pins the widened-pool placement protocol:
// with every branch of the case in the pool, each round's recorded γ (and
// the probe value the responses repeat) is the exact evaluator's value at
// the winning corner, and the frontier stays monotone.
func TestPlacementAllBranchesPool(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-pool placement probes are expensive")
	}
	res, err := NewRunner().Run(Spec{
		Kind:      Placement,
		Case:      "ieee14",
		Placement: PlacementSpec{Devices: 2, AllBranches: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rounds, want 2", len(res.Rows))
	}
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	exact := core.NewGammaEvaluator(n, n.Reactances())
	for i, r := range res.Rows {
		if want := exact.Gamma(r.Reactances); r.Gamma != want || r.ProbeGamma != want {
			t.Errorf("round %d: recorded γ %.17g, probe γ %.17g, exact %.17g", i+1, r.Gamma, r.ProbeGamma, want)
		}
		if len(r.Devices) != i+1 {
			t.Errorf("round %d deployment %v", i+1, r.Devices)
		}
	}
	if res.Rows[1].Gamma < res.Rows[0].Gamma-1e-12 {
		t.Errorf("widened-pool frontier not monotone: %v then %v", res.Rows[0].Gamma, res.Rows[1].Gamma)
	}
	// The wide pool must genuinely widen: an ieee14 pool is all 20
	// branches, so the greedy winner may sit outside the embedded
	// 6-device deployment — at minimum the search must have been free to
	// choose any branch.
	for _, dev := range res.Rows[1].Devices {
		if dev < 1 || dev > n.L() {
			t.Errorf("chosen device %d outside the branch range", dev)
		}
	}
}

// TestRandomKeysDeterministic pins the keyspace scenario: same Spec +
// seed, same draws, across runs.
func TestRandomKeysDeterministic(t *testing.T) {
	spec := Spec{
		Kind:          RandomKeys,
		Case:          "ieee14",
		Trials:        3,
		CostBudget:    0.02,
		OPFStarts:     2,
		OPFSeed:       1,
		Seed:          3,
		Effectiveness: core.EffectivenessConfig{NumAttacks: 30, Seed: 2},
	}
	a, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Error("random-keys scenario not reproducible for a fixed seed")
	}
	if len(a.Rows) != 3 || a.Rows[0].Draws < 1 {
		t.Errorf("unexpected rows: %+v", a.Rows)
	}
}

// TestSpecValidate pins the structural error surface.
func TestSpecValidate(t *testing.T) {
	if err := (Spec{Kind: GammaSweep, GammaGrid: []float64{0.1}}).Validate(); err == nil {
		t.Error("spec without a grid selector accepted")
	}
	if err := (Spec{Kind: GammaSweep, Case: "ieee14", Net: nil}).Validate(); err == nil {
		t.Error("GammaSweep without GammaGrid accepted")
	}
	if err := (Spec{Kind: GammaSweep, Case: "nope", GammaGrid: []float64{0.1}}).Validate(); err == nil {
		t.Error("unknown case accepted")
	}
	if err := (Spec{Kind: GammaSweep, Case: "ieee14", GammaGrid: []float64{0.1}, StaleAttacker: true}).Validate(); err == nil {
		t.Error("StaleAttacker without Hour accepted")
	}
	if err := (Spec{Kind: GammaSweep, Case: "ieee14", GammaGrid: []float64{0.1}, Hour: 3, StaleAttacker: true,
		XOld: make([]float64, 20)}).Validate(); err == nil {
		t.Error("StaleAttacker together with XOld accepted")
	}
	if err := (Spec{Kind: GammaSweep, Case: "ieee14", CapWithMaxGamma: true}).Validate(); err != nil {
		t.Errorf("empty GammaGrid with CapWithMaxGamma rejected: %v", err)
	}
	if err := (Spec{Kind: DaySweep, Case: "ieee14"}).Validate(); err != nil {
		t.Errorf("valid day sweep rejected: %v", err)
	}
}

// TestRunnerEngineReuse pins the service-path amortization: two runs with
// the same caller-provided network share one dispatch engine.
func TestRunnerEngineReuse(t *testing.T) {
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	e1, err := r.dispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.dispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("runner rebuilt the dispatch engine for the same network pointer")
	}
	spec := sweepSpec("")
	spec.Case = ""
	spec.Net = n
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}
	e3, err := r.dispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	if e3 != e1 {
		t.Error("scenario run did not reuse the cached engine")
	}
}

// TestGammaSweepSharesAttackEvaluator pins the one-x_old-preparation
// contract: the γ sweep's search engines hold the attack set's own γ
// evaluator, on the small-case (dense) and large-case (fast) paths, with
// fresh and one-hour-stale attacker knowledge.
func TestGammaSweepSharesAttackEvaluator(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hour  int
		stale bool
	}{{"ieee14", 0, false}, {"ieee57", 0, false}, {"ieee14", 3, true}} {
		spec := sweepSpec(tc.name)
		spec.Hour, spec.StaleAttacker = tc.hour, tc.stale
		n, owned, err := spec.network()
		if err != nil {
			t.Fatal(err)
		}
		st := &execState{spec: spec, r: NewRunner(), n: n, owned: owned, res: &Result{}}
		if err := st.setupGammaSweep(); err != nil {
			t.Fatalf("%s hour %d: %v", tc.name, tc.hour, err)
		}
		if g := st.attacks.Gamma(); g == nil || st.engines.Gamma() != g {
			t.Errorf("%s hour %d: search evaluator %p, attack set's %p; want one shared evaluator",
				tc.name, tc.hour, st.engines.Gamma(), g)
		}
	}
}

// TestGammaSweepXOldLength pins that an XOld whose length is not the
// network's branch count is an error.
func TestGammaSweepXOldLength(t *testing.T) {
	spec := sweepSpec("ieee14")
	spec.XOld = []float64{0.1, 0.2}
	if _, err := NewRunner().Run(spec); err == nil {
		t.Error("XOld with 2 entries accepted on ieee14")
	}
}

// TestGammaSweepMaxGammaOnly pins the pure max-γ sweep: an empty grid
// with CapWithMaxGamma gives exactly one row, the cap (GammaTarget 0),
// and it is core.MaxGammaWith's design at the Spec's Starts, MaxEvals
// and Seed, for the nominal and an explicit attacker knowledge. On ieee57
// the cap's design depends on its evaluation budget.
func TestGammaSweepMaxGammaOnly(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xExplicit := n.Reactances()
	for _, idx := range n.DFACTSIndices()[:2] {
		xExplicit[idx] *= 1.2
	}
	for _, tc := range []struct {
		name string
		xOld []float64
	}{{"nominal", nil}, {"explicit", xExplicit}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := sweepSpec("ieee57")
			spec.GammaGrid, spec.CapWithMaxGamma, spec.XOld = nil, true, tc.xOld
			res, err := NewRunner().Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0].GammaTarget != 0 {
				t.Fatalf("got %d rows (%+v), want one max-γ row", len(res.Rows), res.Rows)
			}
			xOld := tc.xOld
			if xOld == nil {
				xOld = res.Baseline.Reactances
			}
			eng, err := opf.NewDispatchEngine(res.Net)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.MaxGammaWith(core.NewEnginesShared(core.NewGammaEvaluator(res.Net, xOld), eng), res.Net, xOld,
				core.MaxGammaConfig{Starts: spec.SelectStarts, MaxEvals: spec.MaxEvals, Seed: spec.Seed,
					BaselineCost: res.Baseline.CostPerHour})
			if err != nil {
				t.Fatal(err)
			}
			row := res.Rows[0]
			if !reflect.DeepEqual(row.Reactances, want.Reactances) || row.CostIncrease != want.CostIncrease {
				t.Errorf("cap row (cost %v, x %v) != MaxGammaWith (cost %v, x %v)",
					row.CostIncrease, row.Reactances, want.CostIncrease, want.Reactances)
			}
		})
	}
}

// fastTune returns a reduced-budget tuning config that keeps the day loop
// tests affordable while exercising every code path.
func fastTune() core.TuneConfig {
	return core.TuneConfig{
		TargetDelta:   0.9,
		TargetEta:     0.9,
		Iterations:    2,
		Effectiveness: core.EffectivenessConfig{NumAttacks: 80},
		Select:        core.SelectConfig{Starts: 2},
	}
}

// TestDaySweepShortHorizon runs three representative hours of the ieee14
// day at a 220 MW peak — trough (3 AM), shoulder (9 AM) and peak (6 PM) —
// and checks each hour's costs, effectiveness and principal angles.
func TestDaySweepShortHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("daily loop is expensive")
	}
	hours := []int{2, 8, 17}
	res, err := NewRunner().Run(Spec{
		Kind:       DaySweep,
		Case:       "ieee14",
		PeakLoadMW: 220,
		Hours:      hours,
		Tune:       fastTune(),
		OPFStarts:  4,
		Seed:       21,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 3 {
		t.Fatalf("got %d hourly rows", len(rows))
	}
	for i, r := range rows {
		if r.Hour != hours[i] {
			t.Errorf("hour %d mislabelled as %d", hours[i], r.Hour)
		}
		if r.MTDCost < r.BaselineCost-1e-6 {
			t.Errorf("hour %d: MTD cost %v below baseline %v", r.Hour, r.MTDCost, r.BaselineCost)
		}
		if r.CostIncrease < 0 {
			t.Errorf("hour %d: negative cost increase", r.Hour)
		}
		if r.Eta[0] <= 0 || r.Eta[0] > 1 {
			t.Errorf("hour %d: eta = %v out of range", r.Hour, r.Eta[0])
		}
		if r.Gamma <= 0 && i > 0 {
			t.Errorf("hour %d: no subspace separation achieved", r.Hour)
		}
		// Fig. 11's approximation: γ(H_t, H'_t') ≈ γ(H_t', H'_t') whenever
		// the natural drift γ(H_t, H_t') is small.
		if i > 0 && r.GammaOldNew < 0.02 {
			if math.Abs(r.Gamma-r.GammaNewMTD) > 0.1 {
				t.Errorf("hour %d: approximation gap %v too large (γOldNew=%v)",
					r.Hour, math.Abs(r.Gamma-r.GammaNewMTD), r.GammaOldNew)
			}
		}
	}
	// Load ordering carried through.
	if !(rows[0].TotalLoadMW < rows[1].TotalLoadMW && rows[1].TotalLoadMW < rows[2].TotalLoadMW) {
		t.Error("load factors not applied in order")
	}
}

// TestDaySweepValidation pins the day sweep's error surface: a Spec
// without a grid and profile indices outside the 24-hour trace.
func TestDaySweepValidation(t *testing.T) {
	if _, err := NewRunner().Run(Spec{Kind: DaySweep}); err == nil {
		t.Error("day sweep without a grid accepted")
	}
	for _, h := range []int{-1, 24} {
		if _, err := NewRunner().Run(Spec{Kind: DaySweep, Case: "ieee14", Hours: []int{2, h}}); err == nil {
			t.Errorf("hour index %d accepted", h)
		}
	}
}

// TestDaySweepLeavesCallerNetAlone pins the day loop's private clone: a
// DaySweep on a caller-owned network gives bitwise the rows of the same
// Spec run by case name, leaves the network's loads untouched, and leaves
// the runner's cached engine for it serving the same GammaSweep as a fresh
// runner's.
func TestDaySweepLeavesCallerNetAlone(t *testing.T) {
	day := Spec{
		Kind:      DaySweep,
		Case:      "ieee14",
		Hours:     []int{8, 17},
		Warmup:    true,
		Tune:      fastTune(),
		OPFStarts: 2,
		Seed:      5,
	}
	byCase, err := NewRunner().Run(day)
	if err != nil {
		t.Fatal(err)
	}
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	loads := n.LoadsMW()
	r := NewRunner()
	day.Case, day.Net = "", n
	byNet, err := r.Run(day)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byNet.Rows, byCase.Rows) {
		t.Errorf("day sweep on a caller-owned network differs from the case-name run:\nnet  %+v\ncase %+v", byNet.Rows, byCase.Rows)
	}
	if got := n.LoadsMW(); !reflect.DeepEqual(got, loads) {
		t.Errorf("day sweep changed the caller's loads: %v, want %v", got, loads)
	}
	sweep := sweepSpec("")
	sweep.Case, sweep.Net = "", n
	same, err := r.Run(sweep)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRunner().Run(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same.Rows, fresh.Rows) {
		t.Error("a GammaSweep after the day sweep differs from the same sweep on a fresh runner")
	}
}
