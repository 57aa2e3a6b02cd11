package experiments

import (
	"fmt"
	"io"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/impact"
	"gridmtd/internal/opf"
	"gridmtd/internal/scenario"
)

// ImpactConfig controls the Section VII-D damage quantification.
type ImpactConfig struct {
	// PeakLoadMW sets the operating point (the paper's discussion assumes
	// a stressed system; the evening peak is used).
	PeakLoadMW float64
	// Impact configures the attacker model.
	Impact impact.Config
	// OPFStarts is the problem-(1) budget.
	OPFStarts int
	// Seed seeds the solvers.
	Seed int64
}

// DefaultImpactConfig returns the Section VII-D setup: the 14-bus system
// under stressed loading and the paper's 8% attack budget. 250 MW makes
// the bus-1 export limit (160 + 60 MW thermal ratings) bind no matter how
// the D-FACTS devices are set — the irreducible congestion that
// load-redistribution attacks exploit (the cited attack studies likewise
// evaluate congested systems).
func DefaultImpactConfig() ImpactConfig {
	return ImpactConfig{
		PeakLoadMW: 250,
		Impact:     impact.Config{Candidates: 300, Seed: 121},
		OPFStarts:  8,
		Seed:       121,
	}
}

// ImpactResult pairs the worst-case attack damage with the MTD premium it
// should be weighed against (the paper's insurance argument).
type ImpactResult struct {
	Attack *impact.Result
	// MTDPremium is the operational cost of an MTD tuned for
	// η'(0.9) ≥ 0.9 at the same operating point.
	MTDPremium float64
	// MTDEta is the tuned MTD's achieved η'(0.9).
	MTDEta float64
}

// RunImpact quantifies the damage of a successful stealthy attack
// (Section VII-D cites up to ~28% OPF cost increase from the
// load-redistribution literature) and the MTD premium that insures
// against it.
func RunImpact(cfg ImpactConfig) (*ImpactResult, error) {
	n := grid.CaseIEEE14()
	factor := cfg.PeakLoadMW / n.TotalLoadMW()
	n.ScaleLoads(factor)

	// One dispatch engine serves the stressed-system OPF and every solve
	// of the γ-threshold tuning below.
	engine, err := opf.NewDispatchEngine(n)
	if err != nil {
		return nil, fmt.Errorf("experiments: impact engine: %w", err)
	}
	pre, err := opf.SolveDFACTSEngine(engine, opf.DFACTSConfig{Starts: cfg.OPFStarts, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: impact OPF: %w", err)
	}
	z, err := core.OperatingMeasurementsWith(engine, pre.Reactances)
	if err != nil {
		return nil, err
	}

	worst, err := impact.WorstCase(n, pre.Reactances, z, cfg.Impact)
	if err != nil {
		return nil, err
	}

	sel, eff, err := core.TuneGammaThresholdWith(engine, n, pre.Reactances, z, core.TuneConfig{
		TargetDelta:   0.9,
		TargetEta:     0.9,
		Iterations:    4,
		Effectiveness: core.EffectivenessConfig{NumAttacks: 300, Seed: cfg.Seed},
		Select: core.SelectConfig{
			Starts:       4,
			Seed:         cfg.Seed,
			BaselineCost: pre.CostPerHour,
		},
	})
	if err != nil {
		return nil, err
	}
	return &ImpactResult{
		Attack:     worst,
		MTDPremium: sel.CostIncrease,
		MTDEta:     eff.Eta[0],
	}, nil
}

// FormatImpact renders the insurance comparison.
func FormatImpact(w io.Writer, r *ImpactResult) error {
	rows := [][]string{
		{"undetected-attack cost increase", fmt.Sprintf("%.2f%%", 100*r.Attack.CostIncrease)},
		{"  overloaded branches (pre-correction)", fmt.Sprintf("%d", len(r.Attack.OverloadedLines))},
		{"  emergency load shed", fmt.Sprintf("%.1f MW", r.Attack.ShedMW)},
		{"MTD premium for η'(0.9) ≥ 0.9", fmt.Sprintf("%.2f%%", 100*r.MTDPremium)},
		{"  achieved η'(0.9)", f3(r.MTDEta)},
	}
	return renderTable(w,
		"Section VII-D: worst-case stealthy-attack damage vs MTD insurance premium (IEEE 14-bus, stressed loading)",
		[]string{"quantity", "value"}, rows)
}

// learningSpec is the Section IV-A argument: the attacker's
// subspace-estimation error vs the number of eavesdropped measurements on
// the IEEE 14-bus system (or an override case), then the staleness one
// max-γ MTD perturbation induces in the best estimate.
func learningSpec(opts Options) (scenario.Spec, error) {
	samples := []int{15, 30, 60, 120, 250, 500, 1000}
	if opts.Quality == Quick {
		samples = []int{15, 60, 250}
	}
	spec := scenario.Spec{
		Kind:              scenario.Learning,
		Case:              "ieee14",
		SampleGrid:        samples,
		LearnSigma:        0.0015,
		LearnJitterMW:     2,
		Seed:              131,
		ProbeStarts:       4,
		ProbeSeed:         131,
		ProbeBaselineCost: 1,
	}
	if opts.Case != "" {
		n, err := grid.CaseByName(opts.Case)
		if err != nil {
			return spec, err
		}
		// The subspace method needs at least N-1 samples; rebuild the grid
		// starting just above the case's state dimension and doubling, as
		// the paper's 14-bus grid does.
		spec.Case, spec.SampleGrid = opts.Case, nil
		for k, i := (n.N()-1)+(n.N()-1)/5+1, 0; i < len(samples); k, i = 2*k, i+1 {
			spec.SampleGrid = append(spec.SampleGrid, k)
		}
	}
	return spec, nil
}

// FormatLearning renders the learning curve and the staleness probe.
// caseLabel overrides the system named in the title ("" keeps the paper's
// IEEE 14-bus label).
func FormatLearning(w io.Writer, caseLabel string, res *scenario.Result) error {
	label := "IEEE 14-bus"
	if caseLabel != "" {
		label = "case " + caseLabel
	}
	out := make([][]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, []string{fmt.Sprintf("%d", r.Samples), f4(r.SubspaceError)})
	}
	if err := renderTable(w,
		fmt.Sprintf("Section IV-A: attacker subspace-learning error vs eavesdropped samples (%s)", label),
		[]string{"samples", "γ(estimate, true H)"}, out); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "after one max-γ MTD perturbation the learned model is stale: γ(estimate, new H) = %.3f\n\n", res.Learning.Stale)
	return err
}

func init() {
	register(Experiment{
		ID:    "impact",
		Title: "Extension (Sec. VII-D): stealthy-attack damage vs MTD premium (IEEE 14-bus)",
		Run: func(w io.Writer, opts Options) error {
			cfg := DefaultImpactConfig()
			if opts.Quality == Quick {
				cfg.Impact.Candidates = 50
				cfg.OPFStarts = 3
			}
			r, err := RunImpact(cfg)
			if err != nil {
				return err
			}
			return FormatImpact(w, r)
		},
	})
	register(Experiment{
		ID:          "learning",
		Title:       "Extension (Sec. IV-A): attacker subspace learning vs MTD staleness (IEEE 14-bus)",
		CaseGeneric: true,
		System:      "IEEE 14-bus",
		Run: func(w io.Writer, opts Options) error {
			spec, err := learningSpec(opts)
			if err != nil {
				return err
			}
			res, err := scenario.NewRunner().Run(spec)
			if err != nil {
				return err
			}
			return FormatLearning(w, opts.Case, res)
		},
	})
}
