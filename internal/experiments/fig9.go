package experiments

import (
	"fmt"
	"io"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/scenario"
)

// Fig9Config controls the cost-benefit tradeoff experiment at a single
// hour of the dynamic-load day.
type Fig9Config struct {
	// Network builds the test case; nil runs the paper's IEEE 14-bus
	// protocol.
	Network func() *grid.Network
	// Hour indexes the load profile (paper: 6 PM, index 17).
	Hour int
	// PeakLoadMW scales the profile (paper's trace swings the 14-bus
	// system up to ~220 MW); 0 picks 85% of the case's base load, the same
	// peak-to-base ratio the paper uses.
	PeakLoadMW float64
	// GammaGrid are the sweep's γ_th values.
	GammaGrid []float64
	// Effectiveness configures the η' evaluations.
	Effectiveness core.EffectivenessConfig
	// SelectStarts is the per-point problem-(4) budget.
	SelectStarts int
	// Seed seeds the solvers.
	Seed int64
}

// DefaultFig9Config returns the paper's Fig. 9 protocol: 6 PM load, the
// attacker's knowledge one hour stale (5 PM configuration).
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		Hour:         17,
		PeakLoadMW:   220,
		GammaGrid:    gammaGrid(0.05, 0.40, 0.05),
		SelectStarts: 8,
		Seed:         91,
	}
}

// Fig9Row is one tradeoff point.
type Fig9Row struct {
	GammaTarget  float64
	Gamma        float64
	Deltas       []float64
	Eta          []float64
	CostIncrease float64
}

// RunFig9 reproduces Fig. 9: the tradeoff between η'(δ) and the MTD
// operational cost at the 6 PM operating point. The attacker's knowledge
// H_t is the 5 PM no-MTD configuration; cost is measured against the 6 PM
// no-MTD OPF (problem (1)). The whole protocol — both hourly OPFs and the
// γ sweep — is one scenario.Spec sharing a single dispatch engine.
func RunFig9(cfg Fig9Config) ([]Fig9Row, error) {
	build := cfg.Network
	if build == nil {
		build = grid.CaseIEEE14
	}
	effCfg := cfg.Effectiveness
	effCfg.Seed = cfg.Seed
	res, err := scenario.NewRunner().Run(scenario.Spec{
		Kind:            scenario.GammaSweep,
		Network:         build,
		PeakLoadMW:      cfg.PeakLoadMW,
		Hour:            cfg.Hour,
		StaleAttacker:   true,
		GammaGrid:       cfg.GammaGrid,
		CapWithMaxGamma: true,
		SelectStarts:    cfg.SelectStarts,
		Seed:            cfg.Seed,
		OPFStarts:       cfg.SelectStarts,
		OPFSeed:         cfg.Seed,
		Effectiveness:   effCfg,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig9: %w", err)
	}
	rows := make([]Fig9Row, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, Fig9Row{
			GammaTarget:  r.GammaTarget,
			Gamma:        r.Gamma,
			Deltas:       r.Deltas,
			Eta:          r.Eta,
			CostIncrease: r.CostIncrease,
		})
	}
	return rows, nil
}

// FormatFig9 renders the tradeoff series (cost vs effectiveness).
// caseLabel overrides the system named in the title ("" keeps the paper's
// IEEE 14-bus label).
func FormatFig9(w io.Writer, caseLabel string, rows []Fig9Row) error {
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "Fig. 9: no feasible sweep points")
		return err
	}
	headers := []string{"γ_target", "γ(Ht,H't')"}
	for _, d := range rows[0].Deltas {
		headers = append(headers, fmt.Sprintf("η'(δ=%.2f)", d))
	}
	headers = append(headers, "OPF cost increase")
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		target := f2(r.GammaTarget)
		if r.GammaTarget == 0 {
			target = "max"
		}
		cells := []string{target, f3(r.Gamma)}
		for _, e := range r.Eta {
			cells = append(cells, f3(e))
		}
		cells = append(cells, fmt.Sprintf("%.2f%%", 100*r.CostIncrease))
		out = append(out, cells)
	}
	label := "IEEE 14-bus"
	if caseLabel != "" {
		label = "case " + caseLabel
	}
	return renderTable(w,
		fmt.Sprintf("Fig. 9: tradeoff between MTD effectiveness and operational cost, %s, 6 PM load", label),
		headers, out)
}

func init() {
	register(Experiment{
		ID:          "fig9",
		Title:       "Fig. 9: effectiveness vs operational cost tradeoff at 6 PM (IEEE 14-bus)",
		CaseGeneric: true,
		System:      "IEEE 14-bus",
		Run: func(w io.Writer, opts Options) error {
			cfg := DefaultFig9Config()
			if opts.Quality == Quick {
				cfg.GammaGrid = []float64{0.1, 0.25, 0.4}
				cfg.Effectiveness.NumAttacks = 100
				cfg.SelectStarts = 2
			}
			if net, err := resolveCase(opts.Case); err != nil {
				return err
			} else if net != nil {
				cfg.Network = net
				cfg.PeakLoadMW = 0 // 85% of the case's base load
			}
			rows, err := RunFig9(cfg)
			if err != nil {
				return err
			}
			return FormatFig9(w, opts.Case, rows)
		},
	})
}
