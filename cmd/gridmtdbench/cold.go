package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"time"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
	"gridmtd/internal/planner"
)

// coldCase is a cold-selection workload: one case, and the pinned answer
// of its seed-1 γ_th 0.05 request (printed to the precision the project
// records it at).
type coldCase struct {
	name              string
	pinCost, pinGamma string
}

var (
	cold300 = coldCase{"ieee300", "842862.33", "0.0671"}
	cold118 = coldCase{"ieee118", "139226.02", "0.0987"}
)

// pinEvery is how often a cold workload repeats its pinned request.
const pinEvery = 4

// coldSequence generates a cold workload's requests from its seed. Every
// pinEvery-th request, starting with the first, is the pinned seed-1
// γ_th 0.05 request; every other request is a new one with a threshold
// and search seed drawn from the seed. Drawing a fresh request each time
// spreads a run over many selections, so its numbers do not hang on a few
// draws, while the pinned request repeats for the bitwise check. All
// requests use the project's cold benchmark budgets (1 start, 30
// evaluations, 20 attacks, sketch γ).
type coldSequence struct {
	rng  *rand.Rand
	used map[int64]bool
	reqs []planner.SelectRequest // distinct requests in order of first use
}

func newColdSequence(c coldCase, seed int64) *coldSequence {
	pinned := planner.SelectRequest{
		Case: c.name, GammaThreshold: 0.05, Seed: 1,
		Starts: 1, MaxEvals: 30, Attacks: 20, GammaBackend: "sketch",
	}
	return &coldSequence{
		rng:  rand.New(rand.NewSource(seed)),
		used: map[int64]bool{1: true},
		reqs: []planner.SelectRequest{pinned},
	}
}

// next returns the index in s.reqs of request i; calls must come in order
// of i.
func (s *coldSequence) next(i int) int {
	if i%pinEvery == 0 {
		return 0
	}
	r := s.reqs[0]
	for s.used[r.Seed] {
		r.Seed = 2 + s.rng.Int63n(1<<30)
	}
	s.used[r.Seed] = true
	r.GammaThreshold = roundTo(0.03 + 0.03*s.rng.Float64())
	s.reqs = append(s.reqs, r)
	return len(s.reqs) - 1
}

func selectKey(r planner.SelectRequest) string {
	return fmt.Sprintf("select %s γ_th=%g seed=%d", r.Case, r.GammaThreshold, r.Seed)
}

// childCall is one line the benchmark sends a cold child: "select" runs
// planner.Select on a fresh planner, "trace" replays the selection stage
// by stage (replaySelect).
type childCall struct {
	Op  string                `json:"op"`
	Req planner.SelectRequest `json:"req"`
	ID  string                `json:"id,omitempty"`
}

// childReply is the child's answer line.
type childReply struct {
	Resp  json.RawMessage `json:"resp,omitempty"`
	Err   string          `json:"err,omitempty"`
	Trace *replay         `json:"trace,omitempty"`
}

// replay is a traced selection's outcome.
type replay struct {
	Gamma        float64   `json:"gamma"`
	Eta          []float64 `json:"eta"`
	CostPerHour  float64   `json:"cost_per_hour"`
	CostIncrease float64   `json:"cost_increase"`
	Spans        []span    `json:"spans"`
	AllocMB      float64   `json:"alloc_mb"`
	WarmSolveUS  float64   `json:"warm_solve_us"`
	GammaEvalUS  float64   `json:"gamma_eval_us"`
}

// childMain serves childCalls read line by line from in until it closes.
func childMain(in io.Reader, out io.Writer) int {
	t0 := time.Now()
	// Only read for its process-wide counters (lp, solve cache, estimator
	// cache); it never serves a request.
	counterSource := planner.New(planner.Config{})
	snapshot := func() map[string]float64 {
		m, err := counters(counterSource.Stats())
		if err != nil {
			panic(err) // planner.Stats always marshals
		}
		return m
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	enc := json.NewEncoder(out)
	for sc.Scan() {
		var c childCall
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			fmt.Fprintln(os.Stderr, "gridmtdbench child:", err)
			return 2
		}
		var rep childReply
		var err error
		switch c.Op {
		case "select":
			var resp *planner.SelectResponse
			if resp, err = planner.New(planner.Config{}).Select(c.Req); err == nil {
				rep.Resp, err = json.Marshal(resp)
			}
		case "trace":
			rep.Trace, err = replaySelect(c.Req, &tracer{t0: t0, request: c.ID, counters: snapshot})
		default:
			err = fmt.Errorf("unknown op %q", c.Op)
		}
		if err != nil {
			rep.Err = err.Error()
		}
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "gridmtdbench child:", err)
			return 1
		}
	}
	return 0
}

// replaySelect runs one sketch-γ selection request through the same public
// calls, in the same order and with the same arguments, that
// planner.Select makes through scenario.Runner for a one-threshold γ sweep
// on a fresh planner, and records one span per call. Afterwards, outside
// the spans, it measures the unit costs of a warm dispatch solve and a
// sketch γ evaluation on the engines it built.
func replaySelect(req planner.SelectRequest, t *tracer) (*replay, error) {
	if req.GammaBackend != "sketch" || req.Starts <= 0 || req.LoadScale != 0 || len(req.XOld) > 0 || req.MaxGamma {
		return nil, errors.New("replay covers sketch-γ selections with explicit starts on unscaled loads only")
	}
	effCfg := core.EffectivenessConfig{
		NumAttacks: req.Attacks, Sigma: req.Sigma, Alpha: req.Alpha, Seed: req.Seed,
		GammaBackend: core.SketchGamma,
	}
	var (
		n       *grid.Network
		eng     *opf.DispatchEngine
		pre     *opf.Result
		zOld    []float64
		attacks *core.AttackSet
		engines *core.Engines
		sel     *core.Selection
		eff     *core.EffectivenessResult
	)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := t.do("select", 0, func(root int) error {
		stages := []struct {
			name string
			f    func() error
		}{
			{"grid.CaseByName", func() (err error) {
				n, err = grid.CaseByName(req.Case)
				return err
			}},
			{"opf.NewDispatchEngineBackend", func() (err error) {
				eng, err = opf.NewDispatchEngineBackend(n, grid.AutoBackend)
				return err
			}},
			{"opf.SolveDFACTSEngine", func() (err error) {
				pre, err = opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{Starts: req.Starts, MaxEvals: req.MaxEvals, Seed: req.Seed})
				return err
			}},
			{"core.OperatingMeasurements", func() (err error) {
				zOld, err = core.OperatingMeasurements(n, pre.Reactances)
				return err
			}},
			{"core.SampleAttacks", func() (err error) {
				attacks, err = core.SampleAttacks(n, pre.Reactances, zOld, effCfg)
				return err
			}},
			{"core.NewEnginesSharedBackend", func() error {
				engines = core.NewEnginesSharedBackend(n, pre.Reactances, eng, core.SketchGamma)
				return nil
			}},
			{"core.SelectMTDWith", func() (err error) {
				sel, err = core.SelectMTDWith(engines, n, pre.Reactances, core.SelectConfig{
					GammaThreshold: req.GammaThreshold, Starts: req.Starts, MaxEvals: req.MaxEvals,
					Seed: req.Seed, BaselineCost: pre.CostPerHour,
				})
				return err
			}},
			{"core.EvaluateAttacks", func() (err error) {
				cfg := effCfg
				cfg.Estimators = core.NewEstimatorCache(n, 0)
				eff, err = core.EvaluateAttacks(n, attacks, sel.Reactances, cfg)
				return err
			}},
		}
		for _, s := range stages {
			if err := t.do(s.name, root, func(int) error { return s.f() }); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	r := &replay{
		Gamma: eff.Gamma, Eta: eff.Eta,
		CostPerHour: sel.OPF.CostPerHour, CostIncrease: sel.CostIncrease,
		Spans:   t.spans,
		AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
	}
	r.WarmSolveUS, r.GammaEvalUS, err = unitCosts(n, eng, engines)
	return r, err
}

// unitPoints is how many distinct perturbed D-FACTS settings a unit cost
// averages over.
const unitPoints = 32

// unitCosts returns the mean cost in microseconds of one warm dispatch
// solve (DispatchSession.Cost) and one sketch γ evaluation over a fixed
// walk of unitPoints distinct nearby D-FACTS settings, the same for every
// request of a case. The points are distinct so that no solve is answered
// by the engine's solve cache; a point whose dispatch is infeasible costs
// a certified rejection, which is a solve like any other.
func unitCosts(n *grid.Network, eng *opf.DispatchEngine, engines *core.Engines) (solveUS, gammaUS float64, err error) {
	lo, hi := n.DFACTSBounds()
	rng := rand.New(rand.NewSource(9))
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.5 * (lo[i] + hi[i])
	}
	walk := make([][]float64, unitPoints+1)
	for k := range walk {
		for i := range xd {
			xd[i] = math.Min(hi[i], math.Max(lo[i], xd[i]+0.05*(hi[i]-lo[i])*(2*rng.Float64()-1)))
		}
		walk[k] = append([]float64(nil), xd...)
	}
	sess := eng.NewSession()
	cost := func(xd []float64) error {
		if _, err := sess.Cost(n.ExpandDFACTS(xd)); err != nil && !errors.Is(err, opf.ErrInfeasible) {
			return err
		}
		return nil
	}
	if err := cost(walk[0]); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, p := range walk[1:] {
		if err := cost(p); err != nil {
			return 0, 0, err
		}
	}
	solveUS = float64(time.Since(start).Microseconds()) / unitPoints
	g := engines.Gamma()
	g.GammaDFACTS(walk[0])
	start = time.Now()
	for _, p := range walk[1:] {
		g.GammaDFACTS(p)
	}
	gammaUS = float64(time.Since(start).Microseconds()) / unitPoints
	return solveUS, gammaUS, nil
}

// child is a running cold-selection child process.
type child struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startChild() (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childArg)
	// One processor: on the 2-vCPU reference machine a selection on one
	// thread is both faster and far steadier than on two, whose fan-out
	// stalls whenever the host preempts either vCPU.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	return &child{cmd: cmd, in: in, out: sc}, nil
}

func (c *child) call(call childCall) (childReply, error) {
	var rep childReply
	line, err := json.Marshal(call)
	if err != nil {
		return rep, err
	}
	if _, err := c.in.Write(append(line, '\n')); err != nil {
		return rep, fmt.Errorf("child: %w", err)
	}
	if !c.out.Scan() {
		if err := c.out.Err(); err != nil {
			return rep, fmt.Errorf("child: %w", err)
		}
		return rep, errors.New("child exited")
	}
	err = json.Unmarshal(c.out.Bytes(), &rep)
	return rep, err
}

// stop closes the child's input, which ends it, and waits for it to exit.
func (c *child) stop() error {
	c.in.Close()
	return c.cmd.Wait()
}

// coldSample is one timed cold request.
type coldSample struct {
	latencyMS float64
	elapsedMS float64
	cpuMS     float64 // the child's CPU time over the request
	ok        bool
}

// runCold runs a cold-selection workload: in a child process, a closed
// loop of one client sends the workload's request sequence, each request
// on a fresh planner, for the timed phase; with tracing, the first
// tracedRequests distinct requests are then replayed stage by stage in
// the same child. It reports the fastest request's latency and CPU time:
// a selection is deterministic single-threaded work, so every slower
// repeat is that work plus time the host took from it, and the host's
// share drifts between runs far more than the work does.
func runCold(o *options, c coldCase) (*outcome, error) {
	out := newOutcome()
	seq := newColdSequence(c, o.seed)
	chk := newChecker()
	resps := map[int]*planner.SelectResponse{} // first answer per distinct request
	// selectOnce sends seq.reqs[i] and checks the answer.
	selectOnce := func(ch *child, i int) (coldSample, error) {
		req := seq.reqs[i]
		var s coldSample
		cpu0, err := procCPUms(ch.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		start := time.Now()
		rep, err := ch.call(childCall{Op: "select", Req: req})
		s.latencyMS = msOf(time.Since(start))
		if err != nil {
			return s, err
		}
		cpu1, err := procCPUms(ch.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.cpuMS = cpu1 - cpu0
		key := selectKey(req)
		if rep.Err != "" {
			out.violate("%s: %s", key, rep.Err)
			return s, nil
		}
		a, wrong := chk.check(key, req.GammaThreshold, rep.Resp)
		s.elapsedMS = a.elapsedMS
		if wrong != "" {
			out.violate("%s", wrong)
			return s, nil
		}
		if resps[i] == nil {
			var r planner.SelectResponse
			if err := json.Unmarshal(rep.Resp, &r); err != nil {
				return s, err
			}
			resps[i] = &r
			if i == 0 {
				if got := fmt.Sprintf("%.2f", r.CostPerHour); got != c.pinCost {
					out.violate("%s: cost %s, pinned %s", key, got, c.pinCost)
				}
				if got := fmt.Sprintf("%.4f", r.Gamma); got != c.pinGamma {
					out.violate("%s: gamma %s, pinned %s", key, got, c.pinGamma)
				}
			}
		}
		s.ok = true
		return s, nil
	}

	// Set-up: start the child and warm it with the pinned request.
	var ch *child
	var setups []float64
	for k := 0; k < o.setups; k++ {
		if ch != nil {
			if err := ch.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if ch, err = startChild(); err != nil {
			return nil, err
		}
		if _, err := selectOnce(ch, 0); err != nil {
			ch.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer ch.stop()

	var samples []coldSample
	start := time.Now()
	for i := 0; time.Since(start) < o.duration; i++ {
		s, err := selectOnce(ch, seq.next(i))
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	rss, err := procPeakRSSmb(ch.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	var lat, elapsed, cpu []float64
	for _, s := range samples {
		if s.ok {
			lat = append(lat, s.latencyMS)
			elapsed = append(elapsed, s.elapsedMS)
			cpu = append(cpu, s.cpuMS)
		}
	}
	out.attempted = len(samples)
	tail := tailQuantile(len(lat))
	out.e2e["setup_s"] = median(setups)
	out.e2e["latency_ms"] = percentile(lat, 0)
	out.e2e["cpu_ms_per_req"] = percentile(cpu, 0)
	out.e2e["rss_peak_mb"] = rss
	fmt.Fprintf(o.log, " %s: %d timed requests over %d distinct, closed loop, 1 client; set-ups %.3v s\n",
		c.name, len(samples), len(seq.reqs), setups)
	fmt.Fprintf(o.log, " latency of %d: fastest %.4g ms, p50 %.4g ms, p%g %.4g ms; CPU fastest %.4g ms, p50 %.4g ms\n",
		len(lat), percentile(lat, 0), percentile(lat, 0.50), 100*tail, percentile(lat, tail), percentile(cpu, 0), percentile(cpu, 0.50))
	out.layer["planner.computed_p50_ms"] = percentile(elapsed, 0.50)
	out.layer["planner.computed_p99_ms"] = percentile(elapsed, 0.99)
	out.layer["loadgen.sent"] = float64(len(samples))
	out.layer["loadgen.ok"] = float64(len(lat))
	out.layer["loadgen.failed"] = float64(len(samples) - len(lat))

	if o.trace {
		untraced := func(i int) (coldSample, error) { return selectOnce(ch, i) }
		if err := traceCold(o, out, ch, c.name, seq.reqs, resps, untraced); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stageMetrics maps each traced stage to the per-layer metric of its
// median duration.
var stageMetrics = map[string]string{
	"grid.CaseByName":              "grid.case_build_ms",
	"opf.NewDispatchEngineBackend": "opf.engine_build_ms",
	"opf.SolveDFACTSEngine":        "opf.baseline_ms",
	"core.OperatingMeasurements":   "core.operating_meas_ms",
	"core.SampleAttacks":           "core.attack_sample_ms",
	"core.NewEnginesSharedBackend": "core.gamma_engine_build_ms",
	"core.SelectMTDWith":           "core.search_ms",
	"core.EvaluateAttacks":         "core.attack_eval_ms",
}

// tracedRequests is how many distinct requests of a cold workload, the
// pinned one first, the traced pass replays.
const tracedRequests = 4

// traceCold replays the first tracedRequests distinct requests that ran in
// the timed phase, cycling through them until each was replayed once and a
// quarter of the timed phase has passed. Each replay follows an untraced
// planner.Select of the same request (untraced sends it), so the tracing
// overhead compares neighbours rather than phases minutes apart on a
// machine whose speed drifts. It checks every replay against
// planner.Select's answer bitwise and fills the trace metrics.
func traceCold(o *options, out *outcome, ch *child, name string, reqs []planner.SelectRequest, resps map[int]*planner.SelectResponse, untraced func(i int) (coldSample, error)) error {
	var ran []int
	for i := range reqs[:min(tracedRequests, len(reqs))] {
		if resps[i] != nil {
			ran = append(ran, i)
		}
	}
	per := map[string][]float64{}
	var traced, plain float64 // summed traced totals and untraced compute times
	var spans []span
	start := time.Now()
	for k := 0; len(ran) > 0 && (k < len(ran) || time.Since(start) < o.duration/4); k++ {
		i := ran[k%len(ran)]
		s, err := untraced(i)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("%s/%d/%d", name, i, k)
		rep, err := ch.call(childCall{Op: "trace", Req: reqs[i], ID: id})
		if err != nil {
			return err
		}
		if rep.Err != "" || rep.Trace == nil {
			out.violate("%s: traced replay failed: %s", id, rep.Err)
			continue
		}
		tr, want := rep.Trace, resps[i]
		if !sameBits(tr.Gamma, want.Gamma) || !sameBits(tr.CostPerHour, want.CostPerHour) ||
			!sameBits(tr.CostIncrease, want.CostIncrease) || !slices.EqualFunc(tr.Eta, want.Eta, sameBits) {
			out.violate("%s: traced replay differs from planner.Select (γ %v/%v, cost %v/%v, η′ %v/%v)",
				id, tr.Gamma, want.Gamma, tr.CostPerHour, want.CostPerHour, tr.Eta, want.Eta)
		}
		var total, sum float64
		for _, s := range tr.Spans {
			if s.Parent == 0 {
				total = s.ms()
				per["lp.pivots"] = append(per["lp.pivots"], s.Counters["lp.primal_pivots"]+s.Counters["lp.dual_pivots"])
				for _, k := range []string{"bound_flips", "refactorizations", "fallbacks", "prescreen_hits", "bound_probes", "bound_screens"} {
					per["lp."+k] = append(per["lp."+k], s.Counters["lp."+k])
				}
				screens := s.Counters["lp.bound_screens"] + s.Counters["lp.prescreen_hits"]
				per["lp.screen_ratio"] = append(per["lp.screen_ratio"], ratio(screens, screens+s.Counters["lp.solves"]))
				hits := s.Counters["solve_cache.hits"]
				per["opf.solve_cache_hit_ratio"] = append(per["opf.solve_cache_hit_ratio"], ratio(hits, hits+s.Counters["solve_cache.misses"]))
				continue
			}
			sum += s.ms()
			per[stageMetrics[s.Name]] = append(per[stageMetrics[s.Name]], s.ms())
			switch s.Name {
			case "opf.SolveDFACTSEngine":
				per["lp.solves_baseline"] = append(per["lp.solves_baseline"], s.Counters["lp.solves"])
			case "core.SelectMTDWith":
				per["lp.solves_search"] = append(per["lp.solves_search"], s.Counters["lp.solves"])
			case "core.EvaluateAttacks":
				per["core.estimator_fast_builds"] = append(per["core.estimator_fast_builds"], s.Counters["estimators.fast_builds"])
				per["core.estimator_full_qrs"] = append(per["core.estimator_full_qrs"], s.Counters["estimators.full_qrs"])
			}
		}
		if s.ok {
			traced += total
			plain += s.elapsedMS
		}
		per["trace.total_ms"] = append(per["trace.total_ms"], total)
		per["trace.stage_sum_ms"] = append(per["trace.stage_sum_ms"], sum)
		per["trace.coverage"] = append(per["trace.coverage"], ratio(sum, total))
		per["core.alloc_mb_per_select"] = append(per["core.alloc_mb_per_select"], tr.AllocMB)
		per["opf.warm_solve_us"] = append(per["opf.warm_solve_us"], tr.WarmSolveUS)
		per["core.gamma_eval_us"] = append(per["core.gamma_eval_us"], tr.GammaEvalUS)
		spans = append(spans, tr.Spans...)
	}
	for k, v := range per {
		out.layer[k] = median(v)
	}
	if plain > 0 {
		out.layer["trace.overhead_frac"] = traced/plain - 1
	}
	o.spans = append(o.spans, spans...)
	if len(spans) > 0 {
		printStages(o.log, spans, "select")
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
