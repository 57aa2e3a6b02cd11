package experiments

import (
	"fmt"
	"io"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/loadprofile"
	"gridmtd/internal/scenario"
	"gridmtd/internal/sim"
)

// DailyConfig controls the 24-hour simulation behind Figs. 10 and 11.
type DailyConfig struct {
	// Network builds the test case; nil runs the paper's IEEE 14-bus
	// protocol.
	Network func() *grid.Network
	// PeakLoadMW scales the NY-shaped profile (paper: ~220 MW peak on the
	// 14-bus system); 0 picks 85% of the case's base load.
	PeakLoadMW float64
	// Hours restricts the simulation to a subset of profile indices (nil =
	// all 24).
	Hours []int
	// Tune configures the per-hour γ_th tuning; the paper targets
	// η'(0.9) ≥ 0.9.
	Tune core.TuneConfig
	// OPFStarts is the hourly problem-(1) budget.
	OPFStarts int
	// Seed seeds the solvers.
	Seed int64
}

// DefaultDailyConfig returns the paper's Section VII-C protocol.
func DefaultDailyConfig() DailyConfig {
	return DailyConfig{
		PeakLoadMW: 220,
		Tune: core.TuneConfig{
			TargetDelta: 0.9,
			TargetEta:   0.9,
			Iterations:  5,
			Effectiveness: core.EffectivenessConfig{
				NumAttacks: 500,
			},
			Select: core.SelectConfig{Starts: 4},
		},
		OPFStarts: 6,
		Seed:      101,
	}
}

// RunDaily executes the day-long loop and returns the hourly records that
// Figs. 10 and 11 plot. The day is a scenario.Spec: the runner (through
// sim.RunDay) builds the dispatch-OPF engine once for the whole sweep
// instead of once per hour, with records identical to the historical
// per-hour construction (bitwise on the dense backend).
func RunDaily(cfg DailyConfig) ([]sim.HourResult, error) {
	build := cfg.Network
	if build == nil {
		build = grid.CaseIEEE14
	}
	res, err := scenario.NewRunner().Run(scenario.Spec{
		Kind:       scenario.DaySweep,
		Network:    build,
		PeakLoadMW: cfg.PeakLoadMW,
		Hours:      cfg.Hours,
		Warmup:     true,
		Tune:       cfg.Tune,
		OPFStarts:  cfg.OPFStarts,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: daily: %w", err)
	}
	results := make([]sim.HourResult, 0, len(res.Rows))
	for _, r := range res.Rows {
		results = append(results, sim.HourResult{
			Hour:           r.Hour,
			TotalLoadMW:    r.TotalLoadMW,
			BaselineCost:   r.BaselineCost,
			MTDCost:        r.MTDCost,
			CostIncrease:   r.CostIncrease,
			GammaThreshold: r.GammaThreshold,
			GammaOldMTD:    r.Gamma,
			GammaOldNew:    r.GammaOldNew,
			GammaNewMTD:    r.GammaNewMTD,
			Eta:            r.Eta[0],
		})
	}
	return results, nil
}

// FormatFig10 renders the daily load and MTD operational cost (Fig. 10).
func FormatFig10(w io.Writer, rows []sim.HourResult) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			loadprofile.HourLabel(r.Hour),
			f2(r.TotalLoadMW),
			fmt.Sprintf("%.0f", r.BaselineCost),
			fmt.Sprintf("%.0f", r.MTDCost),
			fmt.Sprintf("%.2f%%", 100*r.CostIncrease),
			f3(r.Eta),
		})
	}
	return renderTable(w,
		"Fig. 10: MTD operational cost over a day (NY-shaped trace, target η'(0.9) ≥ 0.9)",
		[]string{"hour", "load (MW)", "C_OPF ($/h)", "C'_OPF ($/h)", "cost increase", "η'(0.9)"}, out)
}

// FormatFig11 renders the three principal-angle series (Fig. 11).
func FormatFig11(w io.Writer, rows []sim.HourResult) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			loadprofile.HourLabel(r.Hour),
			f4(r.GammaOldNew),
			f4(r.GammaOldMTD),
			f4(r.GammaNewMTD),
		})
	}
	return renderTable(w,
		"Fig. 11: principal angles between pre- and post-perturbation measurement matrices",
		[]string{"hour", "γ(Ht,Ht')", "γ(Ht,H't')", "γ(Ht',H't')"}, out)
}

func quickDaily(cfg DailyConfig) DailyConfig {
	cfg.Hours = []int{2, 8, 17} // trough, shoulder, peak
	cfg.Tune.Iterations = 2
	cfg.Tune.Effectiveness.NumAttacks = 100
	cfg.Tune.Select.Starts = 2
	cfg.OPFStarts = 3
	return cfg
}

func init() {
	register(Experiment{
		ID:          "fig10",
		Title:       "Fig. 10: MTD operational cost over a day (IEEE 14-bus, NY-shaped trace)",
		CaseGeneric: true,
		System:      "IEEE 14-bus",
		Run: func(w io.Writer, opts Options) error {
			cfg := DefaultDailyConfig()
			if opts.Quality == Quick {
				cfg = quickDaily(cfg)
			}
			if net, err := resolveCase(opts.Case); err != nil {
				return err
			} else if net != nil {
				cfg.Network = net
				cfg.PeakLoadMW = 0
			}
			rows, err := RunDaily(cfg)
			if err != nil {
				return err
			}
			return FormatFig10(w, rows)
		},
	})
	register(Experiment{
		ID:          "fig11",
		Title:       "Fig. 11: principal angles over a day (IEEE 14-bus, NY-shaped trace)",
		CaseGeneric: true,
		System:      "IEEE 14-bus",
		Run: func(w io.Writer, opts Options) error {
			cfg := DefaultDailyConfig()
			if opts.Quality == Quick {
				cfg = quickDaily(cfg)
			}
			if net, err := resolveCase(opts.Case); err != nil {
				return err
			} else if net != nil {
				cfg.Network = net
				cfg.PeakLoadMW = 0
			}
			rows, err := RunDaily(cfg)
			if err != nil {
				return err
			}
			return FormatFig11(w, rows)
		},
	})
}
