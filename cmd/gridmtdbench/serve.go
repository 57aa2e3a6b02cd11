package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/planner"
)

// loadConns is how many connections the load generator opens: two, and
// never more than the machine has processors, so the generator cannot
// outnumber the cores the daemon runs on.
func loadConns() int { return min(2, runtime.NumCPU()) }

// ---- the daemon -------------------------------------------------------------

// daemon is a running gridmtdd.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	stderr  *tailBuffer
	exited  chan struct{}
	waitErr error
}

// startDaemon starts bin with its default settings on one processor and a
// free loopback port, and waits until it answers /healthz. A port taken
// between choosing and binding it makes the daemon exit; that is retried
// on another port.
func startDaemon(bin string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = tryStartDaemon(bin); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func tryStartDaemon(bin string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{base: "http://" + addr, stderr: &tailBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr)
	// The generator runs on one processor and the daemon on the other, as
	// the cold child does for the reason startChild gives.
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The daemon logs every request; only the tail is kept, to explain a
	// failed start.
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("gridmtdd exited during start (%v): %s", d.waitErr, d.stderr)
		default:
		}
		if resp, err := probe.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		// A short poll, as the wait is part of setup_s.
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("gridmtdd not healthy after 30s: %s", d.stderr)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down gracefully (SIGTERM), kills it if it has not
// exited after its drain grace, and returns once it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// tailBuffer keeps the last 4 KiB written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf) - 4096; n > 0 {
		t.buf = append(t.buf[:0], t.buf[n:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// ---- requests ---------------------------------------------------------------

// request is one POST the generator can send.
type request struct {
	key     string // identity for the payload check
	path    string
	body    []byte
	gammaTh float64 // a selection's threshold; 0 for γ requests
}

func selectRequest(r planner.SelectRequest) request {
	body, _ := json.Marshal(r) // a SelectRequest always marshals
	return request{key: selectKey(r), path: "/v1/select", body: body, gammaTh: r.GammaThreshold}
}

// gammaRequest builds a γ request against case n's nominal reactances for
// a D-FACTS setting drawn uniformly inside the device limits.
func gammaRequest(rng *rand.Rand, caseName string, n *grid.Network, id int) request {
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
	}
	body, _ := json.Marshal(planner.GammaRequest{Case: caseName, XNew: n.ExpandDFACTS(xd)})
	return request{key: fmt.Sprintf("gamma %s #%d", caseName, id), path: "/v1/gamma", body: body}
}

func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

func newConns() []*http.Client {
	cs := make([]*http.Client, loadConns())
	for i := range cs {
		cs[i] = newConn()
	}
	return cs
}

func closeConns(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

func post(c *http.Client, base string, r request) (int, []byte, error) {
	resp, err := c.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// ---- the open-loop generator ------------------------------------------------

// sample is one scheduled request of an open loop. Offsets are from the
// loop's start.
type sample struct {
	due, sent, done time.Duration
	wasSent         bool
	answer
	failure string // non-200 status or transport error
	wrong   string // wrong payload
}

// openLoop sends reqs[i] at offset sched[i] from now over conns, one
// request in flight per connection, so requests wait when every
// connection is busy. Requests not yet sent at offset stop stay unsent.
func openLoop(base string, conns []*http.Client, sched []time.Duration, reqs []request, chk *checker, stop time.Duration) []sample {
	samples := make([]sample, len(sched))
	for i := range samples {
		samples[i].due = sched[i]
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				s := &samples[i]
				waitUntil(t0, s.due)
				if s.sent = time.Since(t0); s.sent >= stop {
					return
				}
				s.wasSent = true
				status, body, err := post(c, base, reqs[i])
				s.done = time.Since(t0)
				switch {
				case err != nil:
					s.failure = err.Error()
				case status != http.StatusOK:
					s.failure = fmt.Sprintf("%s: status %d: %s", reqs[i].key, status, bytes.TrimSpace(body))
				default:
					s.answer, s.wrong = chk.check(reqs[i].key, reqs[i].gammaTh, body)
				}
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// closedLoop sends every request once, each connection sending its next
// request when the previous answer arrives, and returns the samples in
// request order.
func closedLoop(base string, conns []*http.Client, reqs []request, chk *checker) []sample {
	return openLoop(base, conns, make([]time.Duration, len(reqs)), reqs, chk, time.Duration(math.MaxInt64))
}

// loadStats summarizes the samples of one open loop.
type loadStats struct {
	sent, ok  int
	latMS     []float64 // due to done, of answered requests
	memoRTT   []float64 // send to done, of memo answers
	overhead  []float64 // send to done minus the request's own planner time
	lateMS    []float64 // due to send
	failures  []string
	wrong     []string
	backlog   backlog
	keptUp    bool
	offeredRS float64
}

func summarize(samples []sample, length time.Duration, rate float64) loadStats {
	st := loadStats{offeredRS: rate}
	for _, s := range samples {
		st.backlog.due = append(st.backlog.due, s.due)
		if !s.wasSent {
			continue
		}
		st.sent++
		st.backlog.sent = append(st.backlog.sent, s.sent)
		st.lateMS = append(st.lateMS, msOf(s.sent-s.due))
		switch {
		case s.failure != "":
			st.failures = append(st.failures, s.failure)
			continue
		case s.wrong != "":
			st.wrong = append(st.wrong, s.wrong)
			continue
		}
		st.ok++
		st.latMS = append(st.latMS, msOf(s.done-s.due))
		// elapsed_ms times the request's own planner call only when it
		// computed or read the disk; a memo or coalesced answer carries the
		// elapsed_ms of the request that computed it, and a memo lookup
		// itself takes microseconds.
		rtt := msOf(s.done - s.sent)
		switch s.source {
		case planner.SourceComputed, planner.SourceDisk:
			st.overhead = append(st.overhead, rtt-s.elapsedMS)
		case planner.SourceMemo:
			st.memoRTT = append(st.memoRTT, rtt)
			st.overhead = append(st.overhead, rtt)
		}
	}
	// Samples are in schedule order, so due is sorted; send order can
	// differ by a hair between connections.
	slices.Sort(st.backlog.sent)
	st.keptUp = !st.backlog.grows(length/2, length, 2*loadConns())
	return st
}

// record adds the loop's attempts, failures and wrong answers to out.
func (st loadStats) record(out *outcome) {
	out.attempted += st.sent
	out.failed += len(st.failures)
	for _, w := range st.wrong {
		out.violate("%s", w)
	}
}

// ---- set-up -----------------------------------------------------------------

// setUp starts a daemon and warms it with prefill, o.setups times, keeping
// the last daemon; it returns the daemon and the median set-up time in
// seconds.
func setUp(o *options, chk *checker, out *outcome, prefill []request) (*daemon, float64, error) {
	var d *daemon
	var times []float64
	for k := 0; k < o.setups; k++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(o.gridmtdd); err != nil {
			return nil, 0, err
		}
		conns := newConns()
		st := summarize(closedLoop(d.base, conns, prefill, chk), 0, 0)
		closeConns(conns)
		times = append(times, time.Since(start).Seconds())
		for _, f := range st.failures {
			out.violate("prefill: %s", f)
		}
		for _, w := range st.wrong {
			out.violate("prefill: %s", w)
		}
	}
	return d, median(times), nil
}

// serveCases builds the cases whose nominal reactances and device limits
// the γ requests are drawn against.
func serveCases(names ...string) (map[string]*grid.Network, error) {
	nets := map[string]*grid.Network{}
	for _, name := range names {
		n, err := grid.CaseByName(name)
		if err != nil {
			return nil, err
		}
		nets[name] = n
	}
	return nets, nil
}

// roundTo rounds x to 4 decimals, so thresholds read as written.
func roundTo(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// ---- serve-hot --------------------------------------------------------------

// hotRates are serve-hot's open-loop steps, 2000·√2^k requests per second.
var hotRates = []float64{2000, 2000 * math.Sqrt2, 4000, 4000 * math.Sqrt2, 8000, 8000 * math.Sqrt2}

const (
	// hotLatencyStep is the step latency is reported at: 2000 req/s, well
	// below capacity. Nearer capacity a stall of the host snowballs into a
	// queue: the step's p90 moved by up to 100 % between runs at 4000
	// req/s, and its median by 16 % over 4 s windows at 2828 req/s against
	// 12 % here. The step runs hotLatencyShare of the timed phase; the
	// others share the rest.
	hotLatencyStep  = 0
	hotLatencyShare = 0.5
	// hotP99LimitMS is the p99 a step must meet to count towards
	// loadgen.max_rate_rps.
	hotP99LimitMS = 5.0
)

// hotKeys returns serve-hot's 200 distinct requests: γ evaluations on
// ieee14, ieee57 and ieee118 and selections on ieee14 and ieee57, fewer
// than the daemon memo's 256 entries.
func hotKeys(seed int64) ([]request, error) {
	nets, err := serveCases("ieee14", "ieee57", "ieee118")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var keys []request
	for _, g := range []struct {
		name  string
		count int
	}{{"ieee14", 50}, {"ieee57", 50}, {"ieee118", 20}} {
		for i := 0; i < g.count; i++ {
			keys = append(keys, gammaRequest(rng, g.name, nets[g.name], i))
		}
	}
	for _, s := range []struct {
		name   string
		maxGth float64
		gamma  string
	}{{"ieee14", 0.06, ""}, {"ieee57", 0.045, "sketch"}} {
		for i := 0; i < 40; i++ {
			keys = append(keys, selectRequest(planner.SelectRequest{
				Case: s.name, GammaThreshold: roundTo(0.02 + (s.maxGth-0.02)*rng.Float64()),
				Starts: 1, MaxEvals: 20, Attacks: 20, Seed: 1 + int64(i)*1000 + rng.Int63n(1000),
				GammaBackend: s.gamma,
			}))
		}
	}
	return keys, nil
}

// runServeHot drives a prefilled gridmtdd with memo hits only, stepping
// the open-loop rate up through hotRates.
func runServeHot(o *options) (*outcome, error) {
	out := newOutcome()
	keys, err := hotKeys(o.seed)
	if err != nil {
		return nil, err
	}
	chk := newChecker()
	d, setup, err := setUp(o, chk, out, keys)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	conns := newConns()
	defer closeConns(conns)
	var steps []loadStats
	var all []sample
	var cpuMS float64 // the daemon's CPU time over the latency step
	for k, rate := range hotRates {
		stepLen := time.Duration(float64(o.duration) * (1 - hotLatencyShare) / float64(len(hotRates)-1))
		if k == hotLatencyStep {
			stepLen = time.Duration(float64(o.duration) * hotLatencyShare)
		}
		rng := rand.New(rand.NewSource(o.seed*100 + int64(k)))
		sched := poissonSchedule(rng, rate, stepLen)
		reqs := make([]request, len(sched))
		for i := range reqs {
			reqs[i] = keys[rng.Intn(len(keys))]
		}
		cpu0, err := procCPUms(d.pid())
		if err != nil {
			return nil, err
		}
		samples := openLoop(d.base, conns, sched, reqs, chk, stepLen)
		cpu1, err := procCPUms(d.pid())
		if err != nil {
			return nil, err
		}
		if k == hotLatencyStep {
			cpuMS = cpu1 - cpu0
		}
		steps = append(steps, summarize(samples, stepLen, rate))
		all = append(all, samples...)
	}
	rss, err := procPeakRSSmb(d.pid())
	if err != nil {
		return nil, err
	}

	total := summarize(all, o.duration, 0)
	total.record(out)
	at := steps[hotLatencyStep]
	tail := tailQuantile(len(at.latMS))
	out.e2e["setup_s"] = setup
	out.e2e["latency_ms"] = percentile(at.latMS, 0.50)
	out.e2e["cpu_ms_per_req"] = ratio(cpuMS, float64(at.ok))
	out.e2e["rss_peak_mb"] = rss
	fmt.Fprintf(o.log, " %d keys prefilled; %d connections, Poisson arrivals, %d rate steps; latency at %.0f req/s: p50 %.4g ms, p%g %.4g ms of %d\n",
		len(keys), len(conns), len(hotRates), hotRates[hotLatencyStep], percentile(at.latMS, 0.50), 100*tail, percentile(at.latMS, tail), len(at.latMS))
	maxRate := 0.0
	for _, st := range steps {
		p99 := percentile(st.latMS, 0.99)
		pass := st.keptUp && p99 <= hotP99LimitMS && len(st.failures)+len(st.wrong) == 0
		if pass {
			maxRate = st.offeredRS
		}
		fmt.Fprintf(o.log, "  step %6.0f req/s: sent %6d, p50/p90/p95/p99 %.3f/%.3f/%.3f/%.3f ms, backlog max %5d, kept up %v\n",
			st.offeredRS, st.sent, percentile(st.latMS, 0.5), percentile(st.latMS, 0.9), percentile(st.latMS, 0.95), p99, st.backlog.max(), st.keptUp)
	}
	out.layer["planner.memo_ratio"] = ratio(float64(len(total.memoRTT)), float64(total.ok))
	out.layer["planner.memo_p50_ms"] = percentile(total.memoRTT, 0.50)
	out.layer["planner.memo_p99_ms"] = percentile(total.memoRTT, 0.99)
	out.layer["gridmtdd.overhead_p50_ms"] = percentile(at.overhead, 0.50)
	out.layer["loadgen.offered_rps"] = at.offeredRS
	out.layer["loadgen.max_rate_rps"] = maxRate
	out.layer["loadgen.late_p99_ms"] = percentile(at.lateMS, 0.99)
	out.layer["loadgen.backlog_max"] = float64(at.backlog.max())
	out.layer["loadgen.sent"] = float64(total.sent)
	out.layer["loadgen.ok"] = float64(total.ok)
	out.layer["loadgen.failed"] = float64(len(total.failures) + len(total.wrong))
	return out, nil
}

// ---- serve-gamma ------------------------------------------------------------

const (
	// gammaCase is the case serve-gamma evaluates γ on.
	gammaCase = "ieee118"
	// gammaChecks is how many of serve-gamma's timed answers are computed
	// again in this process after the timed phase and compared bit for
	// bit, and gammaRepeats how many of the last are sent again and must
	// come back from the memo unchanged.
	gammaChecks  = 16
	gammaRepeats = 4
)

// runServeGamma sends gridmtdd one γ request at a time over one
// connection, each for a new D-FACTS setting drawn from the seed, so that
// every request computes. It reports the fastest request's latency and
// the daemon's least CPU time over one request, for the reason runCold
// gives.
func runServeGamma(o *options) (*outcome, error) {
	out := newOutcome()
	nets, err := serveCases(gammaCase)
	if err != nil {
		return nil, err
	}
	n := nets[gammaCase]
	// The same warm-up request for every seed, so that set-up does the
	// same work; the checker compares its answers across the set-ups.
	warm := gammaRequest(rand.New(rand.NewSource(0)), gammaCase, n, -1)
	chk := newChecker()
	d, setup, err := setUp(o, chk, out, []request{warm})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newConn()
	defer c.CloseIdleConnections()

	type answered struct {
		req  request
		body []byte
	}
	var (
		kept                          []answered
		lat, cpu, elapsed, overheadMS []float64
	)
	rng := rand.New(rand.NewSource(o.seed))
	start := time.Now()
	for i := 0; time.Since(start) < o.duration; i++ {
		r := gammaRequest(rng, gammaCase, n, i)
		out.attempted++
		cpu0, err := procCPUms(d.pid())
		if err != nil {
			return nil, err
		}
		sent := time.Now()
		status, body, err := post(c, d.base, r)
		rtt := msOf(time.Since(sent))
		cpu1, cpuErr := procCPUms(d.pid())
		if cpuErr != nil {
			return nil, cpuErr
		}
		if err != nil || status != http.StatusOK {
			out.failed++
			continue
		}
		a, wrong := chk.check(r.key, 0, body)
		switch {
		case wrong != "":
			out.violate("%s", wrong)
			continue
		case a.source != planner.SourceComputed:
			out.violate("%s: answered from %q, want a computation", r.key, a.source)
			continue
		}
		kept = append(kept, answered{r, body})
		lat = append(lat, rtt)
		cpu = append(cpu, cpu1-cpu0)
		elapsed = append(elapsed, a.elapsedMS)
		overheadMS = append(overheadMS, rtt-a.elapsedMS)
	}
	rss, err := procPeakRSSmb(d.pid())
	if err != nil {
		return nil, err
	}

	// Every answer so far came from a computation in the daemon; the same
	// computation here must give the same bits.
	var exactMS []float64
	checks := min(gammaChecks, len(kept))
	for k := 0; k < checks; k++ {
		a := kept[k*len(kept)/checks]
		var req planner.GammaRequest
		var resp planner.GammaResponse
		if err := json.Unmarshal(a.req.body, &req); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(a.body, &resp); err != nil {
			return nil, err
		}
		t0 := time.Now()
		want := core.Gamma(n, n.Reactances(), req.XNew)
		exactMS = append(exactMS, msOf(time.Since(t0)))
		if !sameBits(resp.Gamma, want) {
			out.violate("%s: gridmtdd answered γ %v, core.Gamma gives %v", a.req.key, resp.Gamma, want)
		}
	}
	for _, a := range kept[max(0, len(kept)-gammaRepeats):] {
		status, body, err := post(c, d.base, a.req)
		if err != nil || status != http.StatusOK {
			out.violate("%s: repeat failed: status %d, %v", a.req.key, status, err)
			continue
		}
		if ans, wrong := chk.check(a.req.key, 0, body); wrong != "" {
			out.violate("%s", wrong)
		} else if ans.source != planner.SourceMemo {
			out.violate("%s: repeat answered from %q, want the memo", a.req.key, ans.source)
		}
	}

	tail := tailQuantile(len(lat))
	out.e2e["setup_s"] = setup
	out.e2e["latency_ms"] = percentile(lat, 0)
	out.e2e["cpu_ms_per_req"] = percentile(cpu, 0)
	out.e2e["rss_peak_mb"] = rss
	fmt.Fprintf(o.log, " %d timed γ requests on %s, closed loop, 1 connection; %d answers computed again here, %d repeated\n",
		out.attempted, gammaCase, len(exactMS), min(gammaRepeats, len(kept)))
	fmt.Fprintf(o.log, " latency of %d: fastest %.4g ms, p50 %.4g ms, p%g %.4g ms; daemon CPU fastest %.4g ms, p50 %.4g ms\n",
		len(lat), percentile(lat, 0), percentile(lat, 0.50), 100*tail, percentile(lat, tail), percentile(cpu, 0), percentile(cpu, 0.50))
	out.layer["core.gamma_exact_ms"] = median(exactMS)
	out.layer["planner.computed_p50_ms"] = percentile(elapsed, 0.50)
	out.layer["planner.computed_p99_ms"] = percentile(elapsed, 0.99)
	out.layer["gridmtdd.overhead_p50_ms"] = percentile(overheadMS, 0.50)
	out.layer["loadgen.sent"] = float64(out.attempted)
	out.layer["loadgen.ok"] = float64(len(lat))
	out.layer["loadgen.failed"] = float64(out.attempted - len(lat))
	return out, nil
}
