// Command calibcase regenerates the calibrated branch ratings embedded
// with the IEEE 57- and 118-bus cases. The original case files publish no
// line ratings (rateA = 0), but the paper's cost-benefit machinery is only
// interesting on a congested system, so the embedded limits are derived
// from the physics of the case itself:
//
//  1. solve the rating-free OPF at the base loads for the nominal
//     reactances (with -corners, also for the two D-FACTS box corners);
//  2. take the per-branch envelope of |flow| over those operating points;
//  3. set the rating to headroom × envelope, floored and rounded up to
//     5 MW.
//
// The defaults (headroom 1.1 over the nominal flows only, floor 12 MW)
// leave the unconstrained optimum feasible while making MTD reactance
// perturbations visibly expensive — perturbed flows leave the nominal
// pattern and run into the 10% headroom, forcing redispatch, exactly the
// congestion mechanism behind the paper's Table III. The output is a Go
// array literal to paste into internal/grid/cases.
//
// Usage:
//
//	calibcase -case ieee57
//	calibcase -case ieee118 -headroom 1.3 -floor 50 -corners
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
)

func main() {
	var (
		caseName = flag.String("case", "ieee57", "registered case to calibrate")
		headroom = flag.Float64("headroom", 1.1, "rating = headroom x base-flow envelope")
		floor    = flag.Float64("floor", 12, "minimum rating in MW")
		corners  = flag.Bool("corners", false, "include the D-FACTS box corners in the flow envelope (looser ratings: MTD perturbations stay free)")
	)
	flag.Parse()
	if err := run(os.Stdout, *caseName, *headroom, *floor, *corners); err != nil {
		fmt.Fprintln(os.Stderr, "calibcase:", err)
		os.Exit(1)
	}
}

// run writes the rating array literal of the named case to w.
func run(w io.Writer, caseName string, headroom, floor float64, corners bool) error {
	n, err := grid.CaseByName(caseName)
	if err != nil {
		return err
	}
	// Strip the ratings so the envelope reflects the unconstrained physics.
	free := n.Clone()
	for i := range free.Branches {
		free.Branches[i].LimitMW = grid.Unlimited
	}

	samples := [][]float64{free.Reactances()}
	if corners {
		lo, hi := free.DFACTSBounds()
		samples = append(samples, free.ExpandDFACTS(lo), free.ExpandDFACTS(hi))
	}
	env := make([]float64, free.L())
	for _, x := range samples {
		res, err := opf.SolveDispatch(free, x)
		if err != nil {
			return fmt.Errorf("rating-free OPF: %w", err)
		}
		for l, f := range res.FlowsMW {
			if a := math.Abs(f); a > env[l] {
				env[l] = a
			}
		}
	}

	span := "nominal reactances"
	if corners {
		span = "nominal reactances and both D-FACTS box corners"
	}
	fmt.Fprintf(w, "// %s ratings: headroom %.2f, floor %.0f MW, envelope over %s\n", caseName, headroom, floor, span)
	fmt.Fprintf(w, "// (generated by cmd/calibcase).\n")
	fmt.Fprintf(w, "var caseLimit%d = [%d]float64{\n", free.N(), free.L())
	for l := range env {
		limit := headroom * env[l]
		if limit < floor {
			limit = floor
		}
		limit = 5 * math.Ceil(limit/5)
		sep := ", "
		if (l+1)%10 == 0 || l == free.L()-1 {
			sep = ",\n"
		}
		if l%10 == 0 {
			fmt.Fprintf(w, "\t")
		}
		fmt.Fprintf(w, "%g%s", limit, sep)
	}
	fmt.Fprintf(w, "}\n")
	return nil
}
