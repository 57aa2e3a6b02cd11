// Command gridopf inspects the embedded power system cases: it solves the
// OPF (optionally optimizing D-FACTS reactances), prints the dispatch,
// branch flows and binding constraints, and reports the state estimation
// setup (measurement counts, BDD threshold).
//
// Usage:
//
//	gridopf -case list
//	gridopf -case ieee14
//	gridopf -case case4gs -dfacts
//	gridopf -case ieee118
//	gridopf -case ieee118 -backend dense
//	gridopf -case ieee30 -scale 0.9 -sigma 0.002 -alpha 5e-4
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"gridmtd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridopf:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gridopf", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		caseName = fs.String("case", "ieee14", "registered case name, or 'list' to print the registry")
		dfacts   = fs.Bool("dfacts", false, "optimize D-FACTS reactances too (paper problem (1))")
		scale    = fs.Float64("scale", 1.0, "load scaling factor")
		sigma    = fs.Float64("sigma", 0.0015, "measurement noise std dev (per-unit)")
		alpha    = fs.Float64("alpha", 5e-4, "BDD false-positive rate")
		starts   = fs.Int("starts", 8, "multi-start budget for the D-FACTS search")
		seed     = fs.Int64("seed", 1, "random seed")
		backend  = fs.String("backend", "auto", "linear-algebra backend: auto, dense or sparse ('list' describes them)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if handled, err := gridmtd.ResolveCommonFlags(w, *caseName, *backend); handled || err != nil {
		return err
	}

	n, err := gridmtd.CaseByName(*caseName)
	if err != nil {
		return err
	}
	if *scale != 1.0 {
		n.ScaleLoads(*scale)
	}
	if err := n.Validate(); err != nil {
		return err
	}

	fmt.Fprintf(w, "case %s: %d buses, %d branches (%d with D-FACTS), %d generators\n",
		n.Name, n.N(), n.L(), len(n.DFACTSIndices()), len(n.Gens))
	fmt.Fprintf(w, "total load %.1f MW, generation capacity %.1f MW\n\n",
		n.TotalLoadMW(), n.TotalGenCapacityMW())

	var res *gridmtd.OPFResult
	if *dfacts {
		res, err = gridmtd.SolveOPFWithDFACTS(n, gridmtd.DFACTSOPFConfig{Starts: *starts, Seed: *seed})
	} else {
		res, err = gridmtd.SolveOPF(n, n.Reactances())
	}
	if err != nil {
		return fmt.Errorf("OPF: %w", err)
	}

	fmt.Fprintf(w, "OPF cost: %.2f $/h\n\ndispatch:\n", res.CostPerHour)
	for i, g := range n.Gens {
		fmt.Fprintf(w, "  gen @ bus %-3d  %8.2f MW  (max %6.1f, %.0f $/MWh)\n",
			g.Bus, res.DispatchMW[i], g.MaxMW, g.CostPerMWh)
	}
	fmt.Fprintf(w, "\nbranch flows:\n")
	for l, br := range n.Branches {
		marker := ""
		if !math.IsInf(br.LimitMW, 1) && math.Abs(res.FlowsMW[l]) > br.LimitMW-1e-6 {
			marker = "  << at limit"
		}
		dev := ""
		if br.HasDFACTS {
			dev = " [D-FACTS]"
		}
		limit := "unlimited"
		if !math.IsInf(br.LimitMW, 1) {
			limit = fmt.Sprintf("%6.1f MW", br.LimitMW)
		}
		fmt.Fprintf(w, "  %2d: %2d->%-2d  x=%.5f  %8.2f MW / %s%s%s\n",
			l+1, br.From, br.To, res.Reactances[l], res.FlowsMW[l], limit, dev, marker)
	}

	est, err := gridmtd.NewEstimator(n, res.Reactances)
	if err != nil {
		return err
	}
	bdd, err := gridmtd.NewBDD(est, *sigma, *alpha)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nstate estimation: %d measurements, %d states, %d residual DOF\n",
		est.NumMeasurements(), est.NumStates(), est.DOF())
	fmt.Fprintf(w, "BDD threshold τ = %.6f (σ = %g p.u., FP rate %g)\n", bdd.Tau, *sigma, *alpha)
	return nil
}
