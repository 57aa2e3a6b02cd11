// Command mtdexp regenerates the tables and figures of "Cost-Benefit
// Analysis of Moving-Target Defense in Power Grids" (DSN 2018).
//
// Usage:
//
//	mtdexp -list
//	mtdexp -exp table1
//	mtdexp -exp fig6a -quick
//	mtdexp -exp fig6a -case ieee118 -quick
//	mtdexp -case list
//	mtdexp -exp all -out results.txt
//	mtdexp -exp table1 -parallel 8 -cpuprofile cpu.prof
//	mtdexp -exp fig9 -case ieee118 -quick -backend dense
//
// Experiment IDs follow the paper's numbering: table1..table4, fig6a,
// fig6b, fig7, fig8, fig9, fig10, fig11. The -quick flag shrinks sampling
// budgets (useful for smoke tests); the default budgets follow the paper's
// protocol. The -case flag reruns a case-generic experiment's protocol on
// any registered grid (-case list shows them); with -exp all it runs every
// case-generic experiment on that grid. The quick-mode output of -exp all
// is pinned byte for byte by internal/experiments/testdata/golden_quick_all.txt
// (TestGoldenQuickOutputs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gridmtd"
	"gridmtd/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mtdexp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mtdexp", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		list     = fs.Bool("list", false, "list available experiments and exit")
		exp      = fs.String("exp", "all", "experiment id to run, or 'all'")
		caseName = fs.String("case", "", "run case-generic experiments on this registered case ('list' prints the registry)")
		quick    = fs.Bool("quick", false, "use reduced sampling budgets")
		out      = fs.String("out", "", "also write the output to this file")
		parallel = fs.Int("parallel", 0, "cap GOMAXPROCS at this many (0 = all cores, 1 = serial); every fan-out (multi-start searches, η' sweeps) uses GOMAXPROCS workers, and results are identical for any setting")
		backend  = fs.String("backend", "auto", "linear-algebra backend: auto, dense or sparse ('list' describes them)")
		verbose  = fs.Bool("v", false, "append the process-wide dispatch-LP solver counters after the run")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if handled, err := gridmtd.ResolveCommonFlags(stdout, *caseName, *backend); handled || err != nil {
		return err
	}

	if *parallel > 0 {
		// Every fan-out runs on GOMAXPROCS workers (internal/par), so
		// capping it caps every parallel path at once. Outputs do not
		// depend on the setting.
		runtime.GOMAXPROCS(*parallel)
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range experiments.All() {
			marker := " "
			if e.CaseGeneric {
				marker = "*" // accepts -case
			}
			fmt.Fprintf(stdout, "%-8s %s %s\n", e.ID, marker, e.Title)
		}
		fmt.Fprintf(stdout, "\n* = case-generic: accepts -case (see -case list)\n")
		return nil
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	opts := experiments.Options{Quality: experiments.Full, Case: *caseName}
	if *quick {
		opts.Quality = experiments.Quick
	}

	var ids []string
	if strings.EqualFold(*exp, "all") {
		if *caseName != "" {
			// A case override restricts "all" to the experiments that can
			// honor it.
			ids = experiments.CaseGenericIDs()
			fmt.Fprintf(w, "case %s: running the case-generic experiments (%s)\n\n", *caseName, strings.Join(ids, ", "))
		} else {
			ids = experiments.IDs()
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		start := time.Now()
		fmt.Fprintf(w, "=== %s: %s (quality: %s)\n", e.ID, e.TitleFor(*caseName), opts.Quality)
		if err := experiments.RunOne(e, w, opts); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Fprintf(w, "(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if *verbose {
		gridmtd.FormatLPStats(w, gridmtd.GlobalLPStats())
		gridmtd.FormatSolveCacheStats(w, gridmtd.GlobalSolveCacheStats())
	}
	return nil
}
