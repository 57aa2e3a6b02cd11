package experiments

import (
	"fmt"
	"io"

	"gridmtd/internal/core"
	"gridmtd/internal/loadprofile"
	"gridmtd/internal/scenario"
)

// daySpec is the paper's Section VII-C operating day behind Figs. 10 and
// 11: the IEEE 14-bus system follows the NY-shaped trace up to a ~220 MW
// peak (85% of an override case's base load), and every hour the γ
// threshold is tuned for η'(0.9) ≥ 0.9 against one-hour-stale attacker
// knowledge. Quick mode samples the trough, shoulder and peak hours (3 AM,
// 9 AM, 6 PM) at smaller budgets.
func daySpec(opts Options) scenario.Spec {
	spec := scenario.Spec{
		Kind:       scenario.DaySweep,
		Case:       "ieee14",
		PeakLoadMW: 220,
		Warmup:     true,
		Tune: core.TuneConfig{
			TargetDelta:   0.9,
			TargetEta:     0.9,
			Iterations:    5,
			Effectiveness: core.EffectivenessConfig{NumAttacks: 500},
			Select:        core.SelectConfig{Starts: 4},
		},
		OPFStarts: 6,
		Seed:      101,
	}
	if opts.Quality == Quick {
		spec.Hours = []int{2, 8, 17}
		spec.Tune.Iterations = 2
		spec.Tune.Effectiveness.NumAttacks = 100
		spec.Tune.Select.Starts = 2
		spec.OPFStarts = 3
	}
	if opts.Case != "" {
		spec.Case, spec.PeakLoadMW = opts.Case, 0
	}
	return spec
}

// FormatFig10 renders the daily load and MTD operational cost (Fig. 10).
func FormatFig10(w io.Writer, rows []scenario.Row) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			loadprofile.HourLabel(r.Hour),
			f2(r.TotalLoadMW),
			fmt.Sprintf("%.0f", r.BaselineCost),
			fmt.Sprintf("%.0f", r.MTDCost),
			fmt.Sprintf("%.2f%%", 100*r.CostIncrease),
			f3(r.Eta[0]),
		})
	}
	return renderTable(w,
		"Fig. 10: MTD operational cost over a day (NY-shaped trace, target η'(0.9) ≥ 0.9)",
		[]string{"hour", "load (MW)", "C_OPF ($/h)", "C'_OPF ($/h)", "cost increase", "η'(0.9)"}, out)
}

// FormatFig11 renders the three principal-angle series (Fig. 11).
func FormatFig11(w io.Writer, rows []scenario.Row) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			loadprofile.HourLabel(r.Hour),
			f4(r.GammaOldNew),
			f4(r.Gamma),
			f4(r.GammaNewMTD),
		})
	}
	return renderTable(w,
		"Fig. 11: principal angles between pre- and post-perturbation measurement matrices",
		[]string{"hour", "γ(Ht,Ht')", "γ(Ht,H't')", "γ(Ht',H't')"}, out)
}

func init() {
	for _, fig := range []struct {
		id, title string
		format    func(io.Writer, []scenario.Row) error
	}{
		{"fig10", "Fig. 10: MTD operational cost over a day (IEEE 14-bus, NY-shaped trace)", FormatFig10},
		{"fig11", "Fig. 11: principal angles over a day (IEEE 14-bus, NY-shaped trace)", FormatFig11},
	} {
		register(Experiment{
			ID:          fig.id,
			Title:       fig.title,
			CaseGeneric: true,
			System:      "IEEE 14-bus",
			Run: func(w io.Writer, opts Options) error {
				res, err := scenario.NewRunner().Run(daySpec(opts))
				if err != nil {
					return err
				}
				return fig.format(w, res.Rows)
			},
		})
	}
}
