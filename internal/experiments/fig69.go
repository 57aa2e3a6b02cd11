package experiments

import (
	"fmt"
	"io"

	"gridmtd/internal/core"
	"gridmtd/internal/scenario"
)

// sweepSpec is the γ-sweep protocol Figs. 6 and 9 share: a fixed attack set
// (paper: 1000 attacks, α = 5e-4, δ ∈ {0.5, 0.8, 0.9, 0.95}), one
// problem-(4) solve per γ_th evaluated against it, and the hardware's
// max-γ design in place of the thresholds past its reach. The
// pre-perturbation problem (1) is seeded like each search and, with
// OPFStarts unset, takes as many starts. Quick mode keeps three
// thresholds, 100 attacks and two starts; a case override replaces
// caseName.
func sweepSpec(opts Options, caseName string, gammaGrid []float64, starts int, seed int64) scenario.Spec {
	spec := scenario.Spec{
		Kind:            scenario.GammaSweep,
		Case:            caseName,
		GammaGrid:       gammaGrid,
		CapWithMaxGamma: true,
		SelectStarts:    starts,
		Seed:            seed,
		OPFSeed:         seed,
		Effectiveness:   core.EffectivenessConfig{Seed: seed},
	}
	if opts.Quality == Quick {
		spec.GammaGrid = []float64{0.1, 0.25, 0.4}
		spec.Effectiveness.NumAttacks = 100
		spec.SelectStarts = 2
	}
	if opts.Case != "" {
		spec.Case = opts.Case
	}
	return spec
}

func gammaGrid(from, to, step float64) []float64 {
	var out []float64
	for g := from; g <= to+1e-9; g += step {
		out = append(out, g)
	}
	return out
}

// FormatSweep renders a γ sweep as the series Figs. 6 and 9 plot: per
// threshold ("max" marks the max-γ cap) the achieved γ(H_t, H'_t'), the
// η'(δ) curve and the cost increase C_MTD under costHeader. An empty sweep
// prints "<emptyLabel>: no feasible sweep points".
func FormatSweep(w io.Writer, title, costHeader, emptyLabel string, rows []scenario.Row) error {
	if len(rows) == 0 {
		_, err := fmt.Fprintf(w, "%s: no feasible sweep points\n", emptyLabel)
		return err
	}
	headers := []string{"γ_target", "γ(Ht,H't')"}
	for _, d := range rows[0].Deltas {
		headers = append(headers, fmt.Sprintf("η'(δ=%.2f)", d))
	}
	headers = append(headers, costHeader)
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
	return renderTable(w, title, headers, out)
}

// fig6 is one panel of Fig. 6, the effectiveness-vs-γ sweep at base load
// on the panel's case for γ_th ∈ {0.05, ..., to}. sigma is the case's
// calibrated noise level (0 keeps the 14-bus default).
func fig6(panel, caseName, system string, to float64, starts int, seed int64, sigma float64) Experiment {
	return Experiment{
		ID:          "fig6" + panel,
		Title:       fmt.Sprintf("Fig. 6%s: MTD effectiveness η'(δ) vs γ (%s)", panel, system),
		CaseGeneric: true,
		System:      system,
		Run: func(w io.Writer, opts Options) error {
			spec := sweepSpec(opts, caseName, gammaGrid(0.05, to, 0.05), starts, seed)
			spec.Effectiveness.Sigma = sigma
			title := fmt.Sprintf("Fig. 6%s: effectiveness vs γ, %s (FP rate 5e-4)", panel, system)
			if opts.Case != "" {
				title = fmt.Sprintf("Fig. 6%s protocol: effectiveness vs γ, case %s (FP rate 5e-4)", panel, opts.Case)
			}
			res, err := scenario.NewRunner().Run(spec)
			if err != nil {
				return err
			}
			return FormatSweep(w, title, "C_MTD", title, res.Rows)
		},
	}
}

func init() {
	register(fig6("a", "ieee14", "IEEE 14-bus", 0.45, 8, 61, 0))
	// The 30-bus noise level is calibrated per case, as for the 14-bus
	// system: σ = 0.0005 p.u. puts the η'(δ) curves in the paper's
	// operating range (the paper does not specify the 30-bus D-FACTS
	// placement, so exact levels are not reproducible — the monotone trend
	// is; the quick-mode curves are pinned in testdata/golden_quick_all.txt).
	register(fig6("b", "ieee30", "IEEE 30-bus", 0.50, 6, 62, 0.0005))
	register(Experiment{
		ID:          "fig9",
		Title:       "Fig. 9: effectiveness vs operational cost tradeoff at 6 PM (IEEE 14-bus)",
		CaseGeneric: true,
		System:      "IEEE 14-bus",
		Run: func(w io.Writer, opts Options) error {
			// The sweep at the 6 PM load (profile index 17, a 220 MW peak,
			// or 85% of an override case's base load) against an attacker
			// whose knowledge is the 5 PM no-MTD configuration; cost is
			// measured against the 6 PM problem-(1) optimum.
			spec := sweepSpec(opts, "ieee14", gammaGrid(0.05, 0.40, 0.05), 8, 91)
			spec.Hour, spec.StaleAttacker = 17, true
			if opts.Case == "" {
				spec.PeakLoadMW = 220
			}
			res, err := scenario.NewRunner().Run(spec)
			if err != nil {
				return err
			}
			label := "IEEE 14-bus"
			if opts.Case != "" {
				label = "case " + opts.Case
			}
			return FormatSweep(w,
				fmt.Sprintf("Fig. 9: tradeoff between MTD effectiveness and operational cost, %s, 6 PM load", label),
				"OPF cost increase", "Fig. 9", res.Rows)
		},
	})
}
