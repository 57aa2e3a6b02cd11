package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gridmtd/internal/scenario"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig10", "fig11", "fig6a", "fig6b", "fig7", "fig8", "fig9",
		"impact", "learning",
		"table1", "table2", "table3", "table4",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v, want %v", got, want)
		}
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok {
			t.Errorf("ByID(%q) missing", id)
		}
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should miss unknown ids")
	}
	if len(All()) != len(want) {
		t.Error("All() length mismatch")
	}
}

func TestTable1ZeroPattern(t *testing.T) {
	rows, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Paper Table I: attack 1 detected by Δx1, Δx2 only; attack 2 by Δx3,
	// Δx4 only.
	a1, a2 := rows[0].Residuals, rows[1].Residuals
	const eps = 1e-9
	if !(a1[0] > 0.1 && a1[1] > 0.1 && a1[2] < eps && a1[3] < eps) {
		t.Errorf("attack 1 residual pattern %v does not match Table I", a1)
	}
	if !(a2[0] < eps && a2[1] < eps && a2[2] > 0.1 && a2[3] > 0.1) {
		t.Errorf("attack 2 residual pattern %v does not match Table I", a2)
	}
	// The paper's non-zero residual pairs are nearly equal in magnitude
	// (2.82 vs 2.87); ours must exhibit the same near-equality.
	if math.Abs(a1[0]-a1[1]) > 0.3*math.Max(a1[0], a1[1]) {
		t.Errorf("attack 1 non-zero residuals %v not of comparable magnitude", a1[:2])
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	r, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	wantFlows := []float64{126.56, 173.44, -43.44, -26.56}
	for i, f := range wantFlows {
		if math.Abs(r.FlowsMW[i]-f) > 0.05 {
			t.Errorf("flow %d = %.2f, paper %.2f", i+1, r.FlowsMW[i], f)
		}
	}
	if math.Abs(r.DispatchMW[0]-350) > 1e-3 || math.Abs(r.DispatchMW[1]-150) > 1e-3 {
		t.Errorf("dispatch = %v, paper (350, 150)", r.DispatchMW)
	}
	if math.Abs(r.CostPerHour-11500) > 0.5 {
		t.Errorf("cost = %v, paper 1.15e4", r.CostPerHour)
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ g1, cost float64 }{
		{337.37, 11626}, {340.51, 11595}, {348.62, 11514}, {345.95, 11540},
	}
	for i, w := range want {
		if math.Abs(rows[i].DispatchMW[0]-w.g1) > 0.5 {
			t.Errorf("Δx%d: g1 = %.2f, paper %.2f", i+1, rows[i].DispatchMW[0], w.g1)
		}
		if math.Abs(rows[i].CostPerHour-w.cost) > 15 {
			t.Errorf("Δx%d: cost = %.1f, paper %.0f", i+1, rows[i].CostPerHour, w.cost)
		}
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	rows := RunTable4()
	wantBus := []int{1, 2, 3, 6, 8}
	wantPmax := []float64{300, 50, 30, 50, 20}
	wantCost := []float64{20, 30, 40, 50, 35}
	if len(rows) != 5 {
		t.Fatalf("got %d generators", len(rows))
	}
	for i := range rows {
		if rows[i].Bus != wantBus[i] || rows[i].PmaxMW != wantPmax[i] || rows[i].CostPerMWh != wantCost[i] {
			t.Errorf("row %d = %+v, want bus %d Pmax %v cost %v",
				i, rows[i], wantBus[i], wantPmax[i], wantCost[i])
		}
	}
}

func TestFig6QuickMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	res, err := scenario.NewRunner().Run(sweepSpec(Options{Quality: Quick}, "ieee14", gammaGrid(0.05, 0.45, 0.05), 8, 61))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) < 2 {
		t.Fatalf("got %d sweep points", len(rows))
	}
	// γ achieved must be nondecreasing and η'(δ) nondecreasing in γ for
	// every δ (the paper's headline trend).
	for i := 1; i < len(rows); i++ {
		if rows[i].Gamma < rows[i-1].Gamma-1e-6 {
			t.Errorf("gamma not increasing: %v -> %v", rows[i-1].Gamma, rows[i].Gamma)
		}
		for j := range rows[i].Eta {
			if rows[i].Eta[j] < rows[i-1].Eta[j]-0.05 {
				t.Errorf("eta[%d] decreased: %v -> %v (γ %v -> %v)",
					j, rows[i-1].Eta[j], rows[i].Eta[j], rows[i-1].Gamma, rows[i].Gamma)
			}
		}
	}
	// High-γ end must be strongly effective.
	last := rows[len(rows)-1]
	if last.Eta[0] < 0.9 {
		t.Errorf("eta(0.5) = %v at γ=%.2f, want >= 0.9", last.Eta[0], last.Gamma)
	}
}

func TestFig7Variability(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	spec := keyspaceSpec(Options{Quality: Full}, 5, 71)
	spec.Effectiveness.NumAttacks = 150
	spec.OPFStarts = 3
	res, err := scenario.NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 5 {
		t.Fatalf("got %d trials", len(rows))
	}
	// The paper's point is high across-trial variability: the random keys'
	// γ (and hence η') spread widely, unlike the designed MTD's guarantee.
	minG, maxG := rows[0].Gamma, rows[0].Gamma
	for _, r := range rows {
		if r.Gamma < minG {
			minG = r.Gamma
		}
		if r.Gamma > maxG {
			maxG = r.Gamma
		}
	}
	if maxG-minG < 0.02 {
		t.Errorf("random keyspace γ spread [%v, %v] suspiciously tight", minG, maxG)
	}
	// Every η' curve is monotone non-increasing in δ by construction.
	for _, r := range rows {
		for i := 1; i < len(r.Eta); i++ {
			if r.Eta[i] > r.Eta[i-1]+1e-12 {
				t.Errorf("trial %d: η' increased with δ", r.Trial)
			}
		}
	}
}

func TestFig8SmallFractions(t *testing.T) {
	if testing.Short() {
		t.Skip("keyspace sweep is expensive")
	}
	spec := keyspaceSpec(Options{Quality: Full}, 100, 81)
	spec.Effectiveness.NumAttacks = 150
	spec.OPFStarts = 3
	res, err := scenario.NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: less than ~10% of random keys achieve
	// η'(0.9) >= 0.9.
	for i, f := range keyFractions(res.Rows, 0.9) {
		if d := res.Rows[0].Deltas[i]; d >= 0.9 && f > 0.1 {
			t.Errorf("fraction at δ=%v is %v, expected <= 0.1", d, f)
		}
		if f < 0 || f > 1 {
			t.Errorf("fraction %v out of range", f)
		}
	}
}

func TestFormattersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	rows1, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if err := FormatTable1(&buf, rows1); err != nil {
		t.Fatal(err)
	}
	r2, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if err := FormatTable2(&buf, r2); err != nil {
		t.Fatal(err)
	}
	rows3, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if err := FormatTable3(&buf, rows3); err != nil {
		t.Fatal(err)
	}
	if err := FormatTable4(&buf, RunTable4()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV", "Δx1", "Gen1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFormatEmptySweeps(t *testing.T) {
	var buf bytes.Buffer
	if err := FormatSweep(&buf, "Fig. 6a title", "C_MTD", "Fig. 6a", nil); err != nil {
		t.Fatal(err)
	}
	if err := FormatSweep(&buf, "Fig. 9 title", "OPF cost increase", "Fig. 9", nil); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "Fig. 6a: no feasible sweep points\nFig. 9: no feasible sweep points\n"; got != want {
		t.Errorf("empty sweeps printed %q, want %q", got, want)
	}
}
