// Command mtdscan sweeps the MTD γ threshold on an embedded case and
// prints the cost-benefit frontier: achieved γ, effectiveness η'(δ) and
// operational cost per sweep point. It generalizes the paper's Fig. 9 to
// any case, load level and noise setting, and is the tool an operator
// would use to pick a γ threshold for their own risk appetite.
//
// Usage:
//
//	mtdscan -case list
//	mtdscan -case ieee14 -from 0.05 -to 0.45 -step 0.05
//	mtdscan -case ieee118 -from 0.05 -to 0.30 -attacks 200
//	mtdscan -case ieee30 -scale 0.9 -sigma 0.0005 -attacks 500
//	mtdscan -case ieee118 -backend dense -parallel 1
//	mtdscan -case ieee14 -csv frontier.csv
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"

	"gridmtd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mtdscan:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mtdscan", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		caseName = fs.String("case", "ieee14", "registered case name, or 'list' to print the registry")
		scale    = fs.Float64("scale", 1.0, "load scaling factor")
		from     = fs.Float64("from", 0.05, "first γ threshold (rad)")
		to       = fs.Float64("to", 0.45, "last γ threshold (rad)")
		step     = fs.Float64("step", 0.05, "γ threshold step")
		sigma    = fs.Float64("sigma", 0.0015, "measurement noise std dev (per-unit)")
		alpha    = fs.Float64("alpha", 5e-4, "BDD false-positive rate")
		attacks  = fs.Int("attacks", 500, "number of sampled attacks for η'")
		starts   = fs.Int("starts", 6, "multi-start budget per selection")
		maxEvals = fs.Int("maxevals", 0, "objective evaluations per local search (0 = solver default; lower it for quick large-case scans)")
		seed     = fs.Int64("seed", 1, "random seed")
		parallel = fs.Int("parallel", 0, "worker parallelism for the selection searches (0 = all cores, 1 = serial); results are identical for any setting")
		backend  = fs.String("backend", "auto", "linear-algebra backend: auto, dense or sparse ('list' describes them)")
		csvPath  = fs.String("csv", "", "also write the frontier to this CSV file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if handled, err := gridmtd.ResolveCommonFlags(w, *caseName, *backend); handled || err != nil {
		return err
	}
	if *step <= 0 || *to < *from {
		return errors.New("invalid gamma sweep range")
	}
	if *parallel > 0 {
		// The engine parallelism knobs default to GOMAXPROCS, so capping it
		// caps every parallel path at once; outputs are identical for any
		// setting (the CI serial-vs-parallel diff re-checks this on a
		// sparse-path case).
		runtime.GOMAXPROCS(*parallel)
	}

	if _, err := gridmtd.CaseByName(*caseName); err != nil {
		return err
	}
	var grid []float64
	for gth := *from; gth <= *to+1e-9; gth += *step {
		grid = append(grid, gth)
	}

	// The sweep is one scenario: the runner shares a single dispatch-OPF
	// engine and γ engine across the pre-perturbation OPF and every sweep
	// point, chaining each point's solution as the next warm start —
	// exactly the arithmetic the historical per-point loop performed.
	res, err := gridmtd.RunScenario(gridmtd.Scenario{
		Kind:      gridmtd.ScenarioGammaSweep,
		Case:      *caseName,
		LoadScale: *scale,
		GammaGrid: grid,
		Effectiveness: gridmtd.EffectivenessConfig{
			NumAttacks: *attacks,
			Sigma:      *sigma,
			Alpha:      *alpha,
			Seed:       *seed,
		},
		SelectStarts: *starts,
		MaxEvals:     *maxEvals,
		Seed:         *seed,
		OPFStarts:    *starts,
		OPFMaxEvals:  *maxEvals,
		OPFSeed:      *seed,
	})
	if err != nil {
		return err
	}

	n := res.Net
	fmt.Fprintf(w, "case %s, load %.1f MW, no-MTD cost %.1f $/h, σ=%g, α=%g\n\n",
		n.Name, n.TotalLoadMW(), res.Baseline.CostPerHour, *sigma, *alpha)
	fmt.Fprintf(w, "%8s  %8s  %9s  %9s  %9s  %9s  %10s\n",
		"γ_th", "γ", "η'(0.5)", "η'(0.8)", "η'(0.9)", "η'(0.95)", "cost +%")

	var records [][]string
	records = append(records, []string{"gamma_th", "gamma", "eta_0.5", "eta_0.8", "eta_0.9", "eta_0.95", "cost_increase"})

	for i, r := range res.Rows {
		fmt.Fprintf(w, "%8.2f  %8.3f  %9.3f  %9.3f  %9.3f  %9.3f  %9.2f%%\n",
			grid[i], r.Gamma, r.Eta[0], r.Eta[1], r.Eta[2], r.Eta[3], 100*r.CostIncrease)
		records = append(records, []string{
			fmtF(grid[i]), fmtF(r.Gamma),
			fmtF(r.Eta[0]), fmtF(r.Eta[1]), fmtF(r.Eta[2]), fmtF(r.Eta[3]),
			fmtF(r.CostIncrease),
		})
	}
	if res.Exhausted {
		fmt.Fprintf(w, "%8.2f  -- beyond the D-FACTS hardware's reach --\n", res.ExhaustedAt)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cw := csv.NewWriter(f)
		if err := cw.WriteAll(records); err != nil {
			return err
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nfrontier written to %s\n", *csvPath)
	}
	return nil
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
