package experiments

import (
	"fmt"
	"io"

	"gridmtd/internal/core"
	"gridmtd/internal/scenario"
)

// keyspaceSpec is the prior-work baseline of Figs. 7 and 8 on the IEEE
// 14-bus system: trials random D-FACTS settings whose OPF cost stays
// within 2% of the optimum (the paper reads "within 2% of the optimal
// value" as a 0.02 budget), each evaluated on one shared attack set over
// δ ∈ {0.05, ..., 0.95}. Quick mode keeps 100 attacks, three problem-(1)
// starts and δ ∈ {0.1, 0.3, ..., 0.9}.
func keyspaceSpec(opts Options, trials int, seed int64) scenario.Spec {
	spec := scenario.Spec{
		Kind:          scenario.RandomKeys,
		Case:          "ieee14",
		Trials:        trials,
		CostBudget:    0.02,
		OPFStarts:     8,
		OPFSeed:       seed,
		Seed:          seed,
		Effectiveness: core.EffectivenessConfig{Deltas: gammaGrid(0.05, 0.95, 0.05), Seed: seed},
	}
	if opts.Quality == Quick {
		spec.Effectiveness.NumAttacks = 100
		spec.OPFStarts = 3
		spec.Effectiveness.Deltas = gammaGrid(0.1, 0.9, 0.2)
	}
	return spec
}

// FormatFig7 renders each random trial's η'(δ) curve as one column.
func FormatFig7(w io.Writer, rows []scenario.Row) error {
	headers := []string{"δ"}
	for _, r := range rows {
		headers = append(headers, fmt.Sprintf("trial %d (γ=%.3f)", r.Trial, r.Gamma))
	}
	out := make([][]string, 0, len(rows[0].Deltas))
	for i, d := range rows[0].Deltas {
		cells := []string{f2(d)}
		for _, r := range rows {
			cells = append(cells, f3(r.Eta[i]))
		}
		out = append(out, cells)
	}
	return renderTable(w,
		"Fig. 7: η'(δ) under five random keyspace MTD perturbations (2% cost budget), IEEE 14-bus",
		headers, out)
}

// keyFractions returns, per δ of the keyspace rows, the fraction of keys
// with η'(δ) ≥ etaTarget.
func keyFractions(rows []scenario.Row, etaTarget float64) []float64 {
	counts := make([]int, len(rows[0].Deltas))
	for _, r := range rows {
		for i, e := range r.Eta {
			if e >= etaTarget {
				counts[i]++
			}
		}
	}
	fractions := make([]float64, len(counts))
	for i, c := range counts {
		fractions[i] = float64(c) / float64(len(rows))
	}
	return fractions
}

// FormatFig8 renders the fraction of the keyspace meeting the η' bar per δ.
func FormatFig8(w io.Writer, rows []scenario.Row, etaTarget float64) error {
	out := make([][]string, 0, len(rows[0].Deltas))
	for i, f := range keyFractions(rows, etaTarget) {
		out = append(out, []string{f2(rows[0].Deltas[i]), f3(f)})
	}
	return renderTable(w,
		fmt.Sprintf("Fig. 8: fraction of %d random keyspace perturbations (2%% cost budget) with η'(δ) ≥ %.1f, IEEE 14-bus",
			len(rows), etaTarget),
		[]string{"δ", "fraction of keys"}, out)
}

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Fig. 7: η'(δ) under five random MTD perturbations (IEEE 14-bus)",
		Run: func(w io.Writer, opts Options) error {
			res, err := scenario.NewRunner().Run(keyspaceSpec(opts, 5, 71))
			if err != nil {
				return err
			}
			return FormatFig7(w, res.Rows)
		},
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Fig. 8: fraction of random keyspace achieving η'(δ) ≥ 0.9 (IEEE 14-bus)",
		Run: func(w io.Writer, opts Options) error {
			keys := 500 // the paper's keyspace
			if opts.Quality == Quick {
				keys = 50
			}
			res, err := scenario.NewRunner().Run(keyspaceSpec(opts, keys, 81))
			if err != nil {
				return err
			}
			return FormatFig8(w, res.Rows, 0.9)
		},
	})
}
