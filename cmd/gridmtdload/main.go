// Command gridmtdload drives a running gridmtdd (or gridmtdd -route
// fleet front) with a deterministic mixed workload — selections, γ
// evaluations, day sweeps and placement studies over a configurable case
// list — and reports what the service delivered: throughput, latency
// percentiles, shed/timeout rates, and the server-side cache economics
// (memo hits, coalesced joins, disk hits) measured over exactly the run
// window via /v1/stats?mark= / ?since=.
//
// The report is one JSON object. With SLO flags set the exit status
// becomes a gate: any violated objective is listed in the report and the
// process exits 1, which is how CI keeps the serving path honest.
//
// Usage:
//
//	gridmtdload -addr http://127.0.0.1:8643 -duration 10s
//	gridmtdload -cases ieee57,ieee118 -mix select=60,gamma=30,placement=10
//	gridmtdload -concurrency 8 -variants 6 -o report.json
//	gridmtdload -duration 10s -slo-p99 2s -slo-max-shed 0.05 -slo-max-5xx 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridmtd/internal/planner"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridmtdload:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

type config struct {
	addr        string
	duration    time.Duration
	concurrency int
	cases       []string
	mix         map[string]int // endpoint -> weight
	variants    int
	seed        int64
	out         string

	sloP99     time.Duration // 0 = no gate
	sloMaxShed float64       // fraction of requests; < 0 = no gate
	sloMinRPS  float64       // 0 = no gate
	sloMax5xx  int64         // < 0 = no gate
}

// Report is the run's single JSON artifact.
type Report struct {
	Addr        string  `json:"addr"`
	DurationSec float64 `json:"duration_sec"`
	Concurrency int     `json:"concurrency"`
	Mix         string  `json:"mix"`

	Requests int64            `json:"requests"`
	RPS      float64          `json:"rps"`
	ByStatus map[string]int64 `json:"by_status"`
	Net      int64            `json:"transport_errors"`
	Shed     int64            `json:"shed"`      // 429 load-shed answers
	ShedRate float64          `json:"shed_rate"` // shed / requests
	Count5xx int64            `json:"count_5xx"`

	LatencyMS Percentiles `json:"latency_ms"`

	// Server counters over exactly the run window (mark/since delta).
	Server *ServerWindow `json:"server_window,omitempty"`

	SLO SLOReport `json:"slo"`
}

type Percentiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// ServerWindow condenses the /v1/stats delta into the rates an operator
// tunes against: how much traffic the memo, the single-flight join and
// the disk cache absorbed, how hard admission control worked, and how
// many simplex runs the recycled-Farkas-ray pre-screen retired before
// they started.
type ServerWindow struct {
	ResultHits      int64   `json:"result_hits"`
	ResultMisses    int64   `json:"result_misses"`
	ResultCoalesced int64   `json:"result_coalesced"`
	DiskHits        int64   `json:"disk_hits"`
	DiskWrites      int64   `json:"disk_writes"`
	Admitted        int64   `json:"admitted"`
	Queued          int64   `json:"queued"`
	Shed            int64   `json:"shed"`
	LPSolves        int64   `json:"lp_solves"`
	LPPrescreenHits int64   `json:"lp_prescreen_hits"`
	MemoHitRate     float64 `json:"memo_hit_rate"`
	CoalesceRate    float64 `json:"coalesce_rate"`
	DiskHitRate     float64 `json:"disk_hit_rate"`
}

type SLOReport struct {
	Gated      bool     `json:"gated"`
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`
}

func run(args []string, w io.Writer) (int, error) {
	cfg, err := parseFlags(args, w)
	if err != nil {
		if err == flag.ErrHelp {
			return 0, nil
		}
		return 1, err
	}
	report, err := drive(cfg)
	if err != nil {
		return 1, err
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return 1, err
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return 1, err
	}
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, buf, 0o644); err != nil {
			return 1, err
		}
	}
	if report.SLO.Gated && !report.SLO.Pass {
		return 1, nil
	}
	return 0, nil
}

func parseFlags(args []string, w io.Writer) (config, error) {
	fs := flag.NewFlagSet("gridmtdload", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8643", "gridmtdd (or router) base URL")
		duration = fs.Duration("duration", 10*time.Second, "how long to drive traffic")
		conc     = fs.Int("concurrency", 4, "concurrent client workers")
		cases    = fs.String("cases", "ieee14,ieee57", "comma-separated case names to spread traffic over")
		mix      = fs.String("mix", "select=70,gamma=25,placement=5", "endpoint weights: select=N,gamma=N,daysweep=N,placement=N")
		variants = fs.Int("variants", 4, "distinct parameter variants per (case, endpoint); lower = more repeats = higher cache-hit rate")
		seed     = fs.Int64("seed", 1, "workload seed (same seed = same request sequence)")
		out      = fs.String("o", "", "also write the JSON report to this file")
		sloP99   = fs.Duration("slo-p99", 0, "fail (exit 1) if p99 latency exceeds this (0 = no gate)")
		sloShed  = fs.Float64("slo-max-shed", -1, "fail if shed-rate (429s/requests) exceeds this fraction (< 0 = no gate)")
		sloRPS   = fs.Float64("slo-min-rps", 0, "fail if throughput falls below this (0 = no gate)")
		slo5xx   = fs.Int64("slo-max-5xx", -1, "fail if more than this many 5xx responses (< 0 = no gate)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		addr:        strings.TrimRight(*addr, "/"),
		duration:    *duration,
		concurrency: *conc,
		variants:    *variants,
		seed:        *seed,
		out:         *out,
		sloP99:      *sloP99,
		sloMaxShed:  *sloShed,
		sloMinRPS:   *sloRPS,
		sloMax5xx:   *slo5xx,
	}
	if !strings.Contains(cfg.addr, "://") {
		cfg.addr = "http://" + cfg.addr
	}
	for _, c := range strings.Split(*cases, ",") {
		if c = strings.TrimSpace(c); c != "" {
			cfg.cases = append(cfg.cases, c)
		}
	}
	if len(cfg.cases) == 0 {
		return config{}, fmt.Errorf("-cases is empty")
	}
	if cfg.concurrency < 1 {
		return config{}, fmt.Errorf("-concurrency must be >= 1")
	}
	if cfg.variants < 1 {
		cfg.variants = 1
	}
	cfg.mix = map[string]int{}
	for _, part := range strings.Split(*mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight, ok := strings.Cut(part, "=")
		if !ok {
			return config{}, fmt.Errorf("bad -mix entry %q, want endpoint=weight", part)
		}
		n, err := strconv.Atoi(weight)
		if err != nil || n < 0 {
			return config{}, fmt.Errorf("bad -mix weight in %q", part)
		}
		switch name {
		case "select", "gamma", "daysweep", "placement":
			cfg.mix[name] = n
		default:
			return config{}, fmt.Errorf("unknown -mix endpoint %q", name)
		}
	}
	total := 0
	for _, n := range cfg.mix {
		total += n
	}
	if total == 0 {
		return config{}, fmt.Errorf("-mix has no positive weight")
	}
	return cfg, nil
}

// sample is one completed request.
type sample struct {
	status  int
	latency time.Duration
	netErr  bool
}

func drive(cfg config) (*Report, error) {
	client := &http.Client{Timeout: 5 * time.Minute}

	// Branch counts feed the γ-endpoint request bodies.
	branches, err := fetchBranchCounts(client, cfg.addr, cfg.cases)
	if err != nil {
		return nil, err
	}

	// Mark the stats window so the report's server-side rates cover
	// exactly this run, not the daemon's lifetime.
	markOK := statsMark(client, cfg.addr, "loadgen") == nil

	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	workerSamples := make([][]sample, cfg.concurrency)
	start := time.Now()
	for wkr := 0; wkr < cfg.concurrency; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(wkr)*7919))
			for time.Now().Before(deadline) {
				path, body := nextRequest(cfg, rng, branches)
				t0 := time.Now()
				status, err := post(client, cfg.addr+path, body)
				workerSamples[wkr] = append(workerSamples[wkr], sample{
					status: status, latency: time.Since(t0), netErr: err != nil,
				})
			}
		}(wkr)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := &Report{
		Addr:        cfg.addr,
		DurationSec: elapsed.Seconds(),
		Concurrency: cfg.concurrency,
		Mix:         mixString(cfg.mix),
		ByStatus:    map[string]int64{},
	}
	var latencies []time.Duration
	for _, samples := range workerSamples {
		for _, s := range samples {
			report.Requests++
			if s.netErr {
				report.Net++
				continue
			}
			report.ByStatus[strconv.Itoa(s.status)]++
			latencies = append(latencies, s.latency)
			switch {
			case s.status == http.StatusTooManyRequests:
				report.Shed++
			case s.status >= 500:
				report.Count5xx++
			}
		}
	}
	if report.Requests > 0 {
		report.RPS = float64(report.Requests) / elapsed.Seconds()
		report.ShedRate = float64(report.Shed) / float64(report.Requests)
	}
	report.LatencyMS = percentiles(latencies)
	if markOK {
		report.Server = statsWindow(client, cfg.addr, "loadgen")
	}
	report.SLO = gate(cfg, report)
	return report, nil
}

// nextRequest draws one request from the configured mix, deterministic
// in (seed, worker, step). Parameter variants cycle so the same bodies
// recur — that repetition is what exercises memo, coalescing and disk.
func nextRequest(cfg config, rng *rand.Rand, branches map[string]int) (string, any) {
	total := 0
	for _, n := range cfg.mix {
		total += n
	}
	pick := rng.Intn(total)
	endpoint := ""
	for _, name := range []string{"select", "gamma", "daysweep", "placement"} {
		if n := cfg.mix[name]; pick < n {
			endpoint = name
			break
		} else {
			pick -= n
		}
	}
	caseName := cfg.cases[rng.Intn(len(cfg.cases))]
	v := rng.Intn(cfg.variants)
	switch endpoint {
	case "gamma":
		xNew := make([]float64, branches[caseName])
		for i := range xNew {
			xNew[i] = 0.1 + 0.001*float64(v)
		}
		return "/v1/gamma", planner.GammaRequest{Case: caseName, XNew: xNew}
	case "daysweep":
		return "/v1/daysweep", planner.DaySweepRequest{Case: caseName, Seed: int64(11 + v)}
	case "placement":
		return "/v1/placement", planner.PlacementRequest{Case: caseName, Devices: 1 + v%2}
	default: // select
		return "/v1/select", planner.SelectRequest{
			Case:           caseName,
			GammaThreshold: 0.05 + 0.01*float64(v),
			Starts:         1,
			MaxEvals:       20,
			Seed:           1,
			Attacks:        20,
		}
	}
}

func fetchBranchCounts(client *http.Client, addr string, cases []string) (map[string]int, error) {
	resp, err := client.Get(addr + "/v1/cases")
	if err != nil {
		return nil, fmt.Errorf("fetch case registry: %w", err)
	}
	defer resp.Body.Close()
	var listing []struct {
		Name     string `json:"Name"`
		Branches int    `json:"Branches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return nil, fmt.Errorf("decode case registry: %w", err)
	}
	counts := map[string]int{}
	for _, c := range listing {
		counts[c.Name] = c.Branches
	}
	for _, c := range cases {
		if counts[c] == 0 {
			return nil, fmt.Errorf("case %q not in the server's registry", c)
		}
	}
	return counts, nil
}

func post(client *http.Client, url string, body any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func statsMark(client *http.Client, addr, mark string) error {
	resp, err := client.Get(addr + "/v1/stats?mark=" + mark)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats mark: status %d", resp.StatusCode)
	}
	return nil
}

// statsWindow reads the run-window delta. Best effort: a fleet where the
// stats fan-out fails mid-run just omits the server block.
func statsWindow(client *http.Client, addr, mark string) *ServerWindow {
	resp, err := client.Get(addr + "/v1/stats?since=" + mark)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var st planner.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil
	}
	w := &ServerWindow{
		ResultHits:      st.ResultHits,
		ResultMisses:    st.ResultMisses,
		ResultCoalesced: st.ResultCoalesced,
		DiskHits:        st.Disk.Hits,
		DiskWrites:      st.Disk.Writes,
		Admitted:        st.Admission.Admitted,
		Queued:          st.Admission.Queued,
		Shed:            st.Admission.Shed,
		LPSolves:        int64(st.LP.Solves),
		LPPrescreenHits: int64(st.LP.PrescreenHits),
	}
	if served := w.ResultHits + w.ResultMisses + w.ResultCoalesced; served > 0 {
		w.MemoHitRate = float64(w.ResultHits) / float64(served)
		w.CoalesceRate = float64(w.ResultCoalesced) / float64(served)
		w.DiskHitRate = float64(w.DiskHits) / float64(served)
	}
	return w
}

func percentiles(lat []time.Duration) Percentiles {
	if len(lat) == 0 {
		return Percentiles{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		idx := int(q*float64(len(lat))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return float64(lat[idx]) / float64(time.Millisecond)
	}
	return Percentiles{
		P50: at(0.50), P95: at(0.95), P99: at(0.99),
		Max: float64(lat[len(lat)-1]) / float64(time.Millisecond),
	}
}

func gate(cfg config, r *Report) SLOReport {
	slo := SLOReport{Pass: true}
	check := func(violated bool, format string, a ...any) {
		slo.Gated = true
		if violated {
			slo.Pass = false
			slo.Violations = append(slo.Violations, fmt.Sprintf(format, a...))
		}
	}
	if cfg.sloP99 > 0 {
		budget := float64(cfg.sloP99) / float64(time.Millisecond)
		check(r.LatencyMS.P99 > budget, "p99 %.1f ms exceeds budget %.1f ms", r.LatencyMS.P99, budget)
	}
	if cfg.sloMaxShed >= 0 {
		check(r.ShedRate > cfg.sloMaxShed, "shed rate %.3f exceeds %.3f", r.ShedRate, cfg.sloMaxShed)
	}
	if cfg.sloMinRPS > 0 {
		check(r.RPS < cfg.sloMinRPS, "throughput %.1f req/s below %.1f", r.RPS, cfg.sloMinRPS)
	}
	if cfg.sloMax5xx >= 0 {
		check(r.Count5xx > cfg.sloMax5xx, "%d responses were 5xx (budget %d)", r.Count5xx, cfg.sloMax5xx)
	}
	// Transport errors always gate when any gate is armed: a connection
	// that never answered is worse than any 5xx.
	if slo.Gated {
		check(r.Net > 0, "%d requests failed at the transport layer", r.Net)
	}
	return slo
}

func mixString(mix map[string]int) string {
	var parts []string
	for _, name := range []string{"select", "gamma", "daysweep", "placement"} {
		if n := mix[name]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, n))
		}
	}
	return strings.Join(parts, ",")
}
