package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// childArg as the first argument runs the process as a cold-selection
// child (see cold.go) instead of the benchmark.
const childArg = "child"

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridmtdbench:", err)
	}
	os.Exit(code)
}

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (TestBenchmarkJSONMatchesMetrics keeps them in
// step) and adds each end-to-end metric's regression bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the planner sees, reported by every
// workload from its untraced timed phase. doc.go says which statistic of
// its samples each workload reports as latency_ms and cpu_ms_per_req.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the single-layer metrics. A workload that does not exercise
// a layer reports 0 for it; doc.go maps each to the end-to-end metric and
// workload it should move.
var perLayer = []metricDef{
	{"grid.case_build_ms", "ms"},
	{"opf.engine_build_ms", "ms"},
	{"opf.baseline_ms", "ms"},
	{"opf.solve_cache_hit_ratio", "ratio"},
	{"opf.warm_solve_us", "us"},
	{"lp.solves_baseline", "count"},
	{"lp.solves_search", "count"},
	{"lp.pivots", "count"},
	{"lp.bound_flips", "count"},
	{"lp.refactorizations", "count"},
	{"lp.fallbacks", "count"},
	{"lp.prescreen_hits", "count"},
	{"lp.bound_probes", "count"},
	{"lp.bound_screens", "count"},
	{"lp.screen_ratio", "ratio"},
	{"core.operating_meas_ms", "ms"},
	{"core.attack_sample_ms", "ms"},
	{"core.gamma_engine_build_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.attack_eval_ms", "ms"},
	{"core.estimator_fast_builds", "count"},
	{"core.estimator_full_qrs", "count"},
	{"core.gamma_eval_us", "us"},
	{"core.gamma_exact_ms", "ms"},
	{"core.alloc_mb_per_select", "MB"},
	{"trace.total_ms", "ms"},
	{"trace.stage_sum_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"planner.memo_ratio", "ratio"},
	{"planner.memo_p50_ms", "ms"},
	{"planner.memo_p99_ms", "ms"},
	{"planner.computed_p50_ms", "ms"},
	{"planner.computed_p99_ms", "ms"},
	{"gridmtdd.overhead_p50_ms", "ms"},
	{"loadgen.offered_rps", "1/s"},
	{"loadgen.max_rate_rps", "1/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
}

// workload is one named input set the benchmark runs.
type workload struct {
	name string
	run  func(o *options) (*outcome, error)
}

var workloads = []workload{
	{"cold-300", func(o *options) (*outcome, error) { return runCold(o, cold300) }},
	{"cold-118", func(o *options) (*outcome, error) { return runCold(o, cold118) }},
	{"serve-hot", runServeHot},
	{"serve-gamma", runServeGamma},
}

// options carries one invocation's settings into a workload.
type options struct {
	seed     int64
	duration time.Duration // length of the timed phase
	trace    bool          // run the traced pass after the timed phase
	setups   int           // set-ups per run; setup_s is their median
	gridmtdd string        // daemon binary
	spans    []span        // collected traced-pass spans
	log      io.Writer     // human-readable report
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	wrong             []string // correctness violations; each is also in failed
	e2e, layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// violate records an output that is wrong: it fails the run.
func (o *outcome) violate(format string, a ...any) {
	o.wrong = append(o.wrong, fmt.Sprintf(format, a...))
	o.failed++
}

// metric is one reported value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -o file: a workload's result with the
// settings it ran under. -compare reads these.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("gridmtdbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds  = fs.Float64("seconds", 30, "length of each workload's timed phase in seconds")
		trace    = fs.Int("trace", 1, "1 runs the traced pass and reports per-layer metrics, 0 reports end-to-end metrics only")
		spansOut = fs.String("spans", "", "write the traced pass's spans to this JSON file")
		recOut   = fs.String("o", "", "append one JSON record per workload run to this file (input of -compare)")
		compare  = fs.Bool("compare", false, "compare two -o files given as arguments against the bounds in ./BENCHMARK.json")
		daemon   = fs.String("gridmtdd", "", "gridmtdd binary (default: build gridmtd/cmd/gridmtdd into a temporary directory)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare needs two record files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return 2, fmt.Errorf("unknown workload %q (want all, %s)", *name, strings.Join(workloadNames(), ", "))
	}

	// The load generator runs on one processor, so that on the 2-vCPU
	// reference machine it cannot take both from the daemon it drives.
	runtime.GOMAXPROCS(1)
	o := &options{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		setups:   9,
		gridmtdd: *daemon,
		log:      stdout,
	}
	if o.gridmtdd == "" {
		dir, err := os.MkdirTemp("", "gridmtdbench-bin-")
		if err != nil {
			return 1, err
		}
		defer os.RemoveAll(dir)
		if o.gridmtdd, err = buildDaemon(dir); err != nil {
			return 1, err
		}
	}
	fmt.Fprintf(stdout, "gridmtdbench: seed %d, %gs timed per workload, trace %d; nproc %d, GOMAXPROCS %d, %d load connections, %s %s/%s\n",
		o.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), loadConns(), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		fmt.Fprintf(stdout, "\n== %s\n", w.name)
		out, err := w.run(o)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		res := report(stdout, out, o.trace)
		if *recOut != "" {
			if err := appendRecord(*recOut, record{w.name, o.seed, *trace, res}); err != nil {
				return 1, err
			}
		}
		if len(selected) == 1 {
			final = res
			break
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			final.Metrics[w.name+"/"+k] = m
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, o.spans); err != nil {
			return 1, err
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct || final.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// report prints every measured metric and the correctness verdict, and
// returns the workload's result: the end-to-end metrics, or with trace the
// per-layer metrics.
func report(w io.Writer, out *outcome, trace bool) result {
	res := result{
		Correct:   len(out.wrong) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	show := func(defs []metricDef, vals map[string]float64, keep bool) {
		for _, d := range defs {
			v := vals[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, v, d.unit)
			if keep {
				res.Metrics[d.name] = metric{v, d.unit}
			}
		}
	}
	fmt.Fprintln(w, " end-to-end:")
	show(endToEnd, out.e2e, !trace)
	if trace {
		fmt.Fprintln(w, " per-layer:")
		show(perLayer, out.layer, true)
	}
	fmt.Fprintf(w, " attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, v := range out.wrong {
		fmt.Fprintf(w, "  WRONG: %s\n", v)
	}
	return res
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads an -o file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// buildDaemon compiles gridmtd/cmd/gridmtdd into dir. It needs the go
// command and a working directory inside the module.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "gridmtdd")
	cmd := exec.Command("go", "build", "-o", bin, "gridmtd/cmd/gridmtdd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build gridmtdd: %v\n%s", err, out)
	}
	return bin, nil
}
