package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmtd"
	"gridmtd/internal/planner"
	"gridmtd/internal/planner/diskcache"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newHandler(planner.New(planner.Config{}), time.Minute))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndCases(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var cases []map[string]any
	r2, err := http.Get(srv.URL + "/v1/cases")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) < 5 {
		t.Errorf("case listing has %d entries, want the full registry", len(cases))
	}
}

func TestSelectRoundTripAndMemo(t *testing.T) {
	srv := testServer(t)
	req := planner.SelectRequest{
		Case: "ieee14", GammaThreshold: 0.1, Starts: 2, Seed: 1, Attacks: 50,
	}
	var first planner.SelectResponse
	if code := postJSON(t, srv.URL+"/v1/select", req, &first); code != http.StatusOK {
		t.Fatalf("select status %d", code)
	}
	if first.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if first.Gamma < 0.1-2e-3 {
		t.Errorf("served γ=%v below the requested threshold", first.Gamma)
	}
	if len(first.Eta) == 0 || len(first.Reactances) == 0 {
		t.Errorf("incomplete response: %+v", first)
	}
	var second planner.SelectResponse
	if code := postJSON(t, srv.URL+"/v1/select", req, &second); code != http.StatusOK {
		t.Fatalf("second select status %d", code)
	}
	if !second.CacheHit {
		t.Error("second identical request missed the memo")
	}
	if second.Gamma != first.Gamma {
		t.Errorf("memoized γ %v != first %v", second.Gamma, first.Gamma)
	}
}

// TestStatsServesLPCounters pins the /v1/stats surface: the response
// carries the process-wide revised-simplex counter block alongside the
// cache counters, so LP warm-path health is observable in production.
func TestStatsServesLPCounters(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		CaseHits *int64 `json:"case_hits"`
		LP       *struct {
			Solves           *int `json:"solves"`
			EtaUpdates       *int `json:"eta_updates"`
			Refactorizations *int `json:"refactorizations"`
			Fallbacks        *int `json:"fallbacks"`
			PrescreenHits    *int `json:"prescreen_hits"`
			InfeasibleSolves *int `json:"infeasible_solves"`
		} `json:"lp"`
		SolveCache *struct {
			Hits   *int64 `json:"hits"`
			Misses *int64 `json:"misses"`
		} `json:"solve_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CaseHits == nil {
		t.Error("stats response missing case_hits")
	}
	if stats.LP == nil {
		t.Fatal("stats response missing the lp counter block")
	}
	for name, p := range map[string]*int{
		"solves":            stats.LP.Solves,
		"eta_updates":       stats.LP.EtaUpdates,
		"refactorizations":  stats.LP.Refactorizations,
		"fallbacks":         stats.LP.Fallbacks,
		"prescreen_hits":    stats.LP.PrescreenHits,
		"infeasible_solves": stats.LP.InfeasibleSolves,
	} {
		if p == nil {
			t.Errorf("lp block missing %q", name)
		} else if *p < 0 {
			t.Errorf("lp.%s = %d, want >= 0", name, *p)
		}
	}
	if stats.SolveCache == nil {
		t.Fatal("stats response missing the solve_cache block")
	}
	if stats.SolveCache.Hits == nil || stats.SolveCache.Misses == nil {
		t.Error("solve_cache block missing hits/misses")
	}
}

// TestRepeatSelectionHitsEstimatorCache pins the estimator-reuse contract
// end to end: two selections that differ only in a memo-key field (the
// attack budget) land on the same x_new, so the second request misses the
// response memo but serves its η′ evaluation from the runner's shared
// per-network estimator cache instead of refactorizing H'. The requests
// give an x_old that differs from the case's reactances on 40 lines, so
// x_new changes more lines than the rank-|S| residual kernel takes and
// the evaluation needs an estimator. The /v1/stats estimators block is the
// observable.
func TestRepeatSelectionHitsEstimatorCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two ieee57 selections")
	}
	srv := testServer(t)
	estStats := func() (hits, misses int64) {
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Estimators *struct {
				Hits       *int64 `json:"hits"`
				Misses     *int64 `json:"misses"`
				FastBuilds *int64 `json:"fast_builds"`
				FullQRs    *int64 `json:"full_qrs"`
			} `json:"estimators"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		e := stats.Estimators
		if e == nil || e.Hits == nil || e.Misses == nil || e.FastBuilds == nil || e.FullQRs == nil {
			t.Fatal("stats response missing the estimators counter block")
		}
		return *e.Hits, *e.Misses
	}
	// ieee57 is the smallest case the sparse (fast) evaluation path — and
	// with it the estimator cache — serves.
	n, err := gridmtd.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	for l, changed := 0, 0; changed < 40; l++ {
		if !n.Branches[l].HasDFACTS {
			xOld[l] *= 1.1
			changed++
		}
	}
	req := planner.SelectRequest{
		Case: "ieee57", GammaThreshold: 0.05, XOld: xOld, Starts: 1, Seed: 3, Attacks: 40,
	}
	_, m0 := estStats()
	var first planner.SelectResponse
	if code := postJSON(t, srv.URL+"/v1/select", req, &first); code != http.StatusOK {
		t.Fatalf("first select status %d", code)
	}
	h1, m1 := estStats()
	if m1 == m0 {
		t.Fatalf("first selection never consulted the estimator cache (misses %d -> %d)", m0, m1)
	}
	// Same search seed, different attack budget: new memo key, same x_new.
	req.Attacks = 60
	var second planner.SelectResponse
	if code := postJSON(t, srv.URL+"/v1/select", req, &second); code != http.StatusOK {
		t.Fatalf("second select status %d", code)
	}
	if second.CacheHit {
		t.Fatal("second request hit the response memo; the estimator cache was never exercised")
	}
	h2, _ := estStats()
	if h2 == h1 {
		t.Fatalf("repeat selection rebuilt its estimator instead of hitting the cache (hits %d -> %d)", h1, h2)
	}
}

func TestErrorStatuses(t *testing.T) {
	srv := testServer(t)
	// Unknown case: unprocessable.
	if code := postJSON(t, srv.URL+"/v1/select",
		planner.SelectRequest{Case: "nope", GammaThreshold: 0.1}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown case status %d, want 422", code)
	}
	// Unreachable threshold without fallback: conflict.
	if code := postJSON(t, srv.URL+"/v1/select",
		planner.SelectRequest{Case: "ieee14", GammaThreshold: 5, Starts: 2, Seed: 1, Attacks: 50}, nil); code != http.StatusConflict {
		t.Errorf("unreachable threshold status %d, want 409", code)
	}
	// Unknown γ-backend name: unprocessable, naming every accepted alias.
	var bad struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, srv.URL+"/v1/select",
		planner.SelectRequest{Case: "ieee14", GammaThreshold: 0.1, GammaBackend: "bogus"}, &bad); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown gamma_backend status %d, want 422", code)
	}
	for _, name := range []string{"auto", "exact", "sparse", "sketch"} {
		if !strings.Contains(bad.Error, name) {
			t.Errorf("unknown gamma_backend error %q does not name %q", bad.Error, name)
		}
	}
	// Malformed body: bad request.
	resp, err := http.Post(srv.URL+"/v1/select", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", resp.StatusCode)
	}
}

// TestRequestDeadline pins the service-hardening contract: a compute
// endpoint that cannot finish inside the per-request deadline answers 503
// with a Retry-After header and a body telling the client the computation
// continues and will be memoized, while the instant GET endpoints stay
// outside the deadline entirely.
func TestRequestDeadline(t *testing.T) {
	// A deadline no real selection can meet makes the timeout deterministic.
	srv := httptest.NewServer(newHandler(planner.New(planner.Config{}), time.Nanosecond))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/select", "application/json",
		strings.NewReader(`{"case":"ieee14","gamma_threshold":0.1,"starts":1,"seed":1,"attacks":20}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-exceeded status %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("503 Content-Type %q, want application/json like every other response", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
		t.Errorf("503 Retry-After %q, want %q — timeouts must invite the retry that hits the memo", ra, retryAfterSeconds)
	}
	if s := string(body); !strings.Contains(s, "deadline") || !strings.Contains(s, "memoized") {
		t.Errorf("503 body %q does not explain the deadline and the memoized retry", body)
	}
	if r2, err := http.Get(srv.URL + "/healthz"); err != nil || r2.StatusCode != http.StatusOK {
		t.Fatalf("healthz under a nanosecond deadline: %v / %v", err, r2)
	} else {
		r2.Body.Close()
	}
}

// TestDaemonCoalescesIdenticalRequests drives the single-flight contract
// through real HTTP: N identical in-flight selections run exactly one
// computation (stats: 1 miss, the rest hits or coalesced joins) and every
// client reads the same numbers.
func TestDaemonCoalescesIdenticalRequests(t *testing.T) {
	srv := testServer(t)
	const n = 6
	req := planner.SelectRequest{
		Case: "ieee14", GammaThreshold: 0.12, Starts: 2, Seed: 1, Attacks: 50,
	}
	var wg sync.WaitGroup
	resps := make([]planner.SelectResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postJSON(t, srv.URL+"/v1/select", req, &resps[i])
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	r, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st planner.Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.ResultMisses != 1 {
		t.Errorf("result_misses = %d for %d identical concurrent requests, want exactly 1 computation", st.ResultMisses, n)
	}
	if st.ResultHits+st.ResultCoalesced != n-1 {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want %d",
			st.ResultHits, st.ResultCoalesced, st.ResultHits+st.ResultCoalesced, n-1)
	}
	base := resps[0]
	base.CacheHit, base.Source = false, ""
	for i := 1; i < n; i++ {
		got := resps[i]
		got.CacheHit, got.Source = false, ""
		if !reflect.DeepEqual(base, got) {
			t.Errorf("response %d differs from response 0:\n%+v\n%+v", i, base, got)
		}
	}
}

// TestDaemonShedsWithRetryAfter drives admission control through real
// HTTP, sequenced by polling /v1/stats so nothing races: a long request
// holds the single worker slot, a second fills the queue, and the third
// answers 429 with a Retry-After header. The shed request retried after
// the drain computes normally.
func TestDaemonShedsWithRetryAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("holds a multi-second computation to saturate the queue")
	}
	p := planner.New(planner.Config{MaxInflight: 1, QueueDepth: 1})
	srv := httptest.NewServer(newHandler(p, time.Minute))
	defer srv.Close()

	admission := func() planner.AdmissionStats {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st planner.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Admission
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	// The holder: a cold 300-bus selection computes for the better part of
	// a second, so the millisecond-scale polling below sequences well
	// inside its compute window.
	holder := planner.SelectRequest{
		Case: "ieee300", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20, GammaBackend: "sketch",
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code := postJSON(t, srv.URL+"/v1/select", holder, nil); code != http.StatusOK {
			t.Errorf("holder request status %d", code)
		}
	}()
	waitFor("worker slot held", func() bool { return admission().Admitted == 1 })

	// The queuer: a distinct request that must wait for the slot.
	quick := planner.SelectRequest{Case: "ieee14", GammaThreshold: 0.1, Starts: 1, Seed: 1, Attacks: 20}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code := postJSON(t, srv.URL+"/v1/select", quick, nil); code != http.StatusOK {
			t.Errorf("queued request status %d", code)
		}
	}()
	waitFor("queue full", func() bool { return admission().Queued == 1 })

	// The third concurrent computation sheds deterministically.
	shedReq := planner.SelectRequest{Case: "ieee14", GammaThreshold: 0.2, Starts: 1, Seed: 1, Attacks: 20}
	buf, _ := json.Marshal(shedReq)
	resp, err := http.Post(srv.URL+"/v1/select", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated daemon answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
		t.Errorf("429 Retry-After %q, want %q", ra, retryAfterSeconds)
	}
	if st := admission(); st.Shed != 1 {
		t.Errorf("admission shed = %d, want 1", st.Shed)
	}
	wg.Wait()
	// The shed request was not memoized as an error: the retry computes.
	var retried planner.SelectResponse
	if code := postJSON(t, srv.URL+"/v1/select", shedReq, &retried); code != http.StatusOK {
		t.Fatalf("retry after drain: status %d", code)
	}
	if retried.Source != planner.SourceComputed {
		t.Errorf("retry served source %q, want a fresh computation", retried.Source)
	}
}

// TestGracefulShutdown pins the SIGTERM path: the signal stops the
// listener, in-flight work drains, and serveUntilSignal returns cleanly.
func TestGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newHandler(planner.New(planner.Config{}), time.Minute)}
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serveUntilSignal(srv, ln, stop) }()

	url := "http://" + ln.Addr().String()
	// Wait for the listener to answer, then shut down mid-session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop <- os.Interrupt
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(shutdownGrace + 5*time.Second):
		t.Fatal("serveUntilSignal did not return after the signal")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after shutdown")
	}
}

func TestGammaEndpoint(t *testing.T) {
	srv := testServer(t)
	// γ of the nominal configuration against itself is zero.
	var n struct {
		Gamma float64 `json:"gamma"`
	}
	var xNew []float64
	// Fetch branch count via the registry listing.
	r, err := http.Get(srv.URL + "/v1/cases")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name     string `json:"Name"`
		Branches int    `json:"Branches"`
	}
	if err := json.NewDecoder(r.Body).Decode(&cases); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	branches := 0
	for _, c := range cases {
		if c.Name == "case4gs" {
			branches = c.Branches
		}
	}
	if branches == 0 {
		t.Fatal("case4gs missing from the registry listing")
	}
	xNew = make([]float64, branches)
	for i := range xNew {
		xNew[i] = 0.1 // any valid positive reactance vector
	}
	if code := postJSON(t, srv.URL+"/v1/gamma",
		planner.GammaRequest{Case: "case4gs", XNew: xNew}, &n); code != http.StatusOK {
		t.Fatalf("gamma status %d", code)
	}
	if n.Gamma < 0 {
		t.Errorf("γ = %v out of range", n.Gamma)
	}
}

// TestInvalidReactancesUnprocessable pins the HTTP side of reactance
// validation: a zero or negative reactance in /v1/gamma's x_new or x_old
// or in /v1/select's x_old answers 422, and none of them reaches the memo.
func TestInvalidReactancesUnprocessable(t *testing.T) {
	srv := testServer(t)
	x := []float64{0.1, 0.1, 0.1, 0.1} // case4gs has four branches
	for _, v := range []float64{0, -0.05} {
		bad := append([]float64(nil), x...)
		bad[2] = v
		for path, body := range map[string]any{
			"/v1/gamma x_new":  planner.GammaRequest{Case: "case4gs", XNew: bad},
			"/v1/gamma x_old":  planner.GammaRequest{Case: "case4gs", XOld: bad, XNew: x},
			"/v1/select x_old": planner.SelectRequest{Case: "case4gs", GammaThreshold: 0.05, XOld: bad},
		} {
			var resp struct {
				Error string `json:"error"`
			}
			url := srv.URL + strings.Fields(path)[0]
			if code := postJSON(t, url, body, &resp); code != http.StatusUnprocessableEntity {
				t.Errorf("%s = %v: status %d, want 422", path, v, code)
			}
			if !strings.Contains(resp.Error, "positive and finite") {
				t.Errorf("%s = %v: error %q does not name the rule", path, v, resp.Error)
			}
		}
	}
	r, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st planner.Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ResultMisses != 0 {
		t.Errorf("rejected requests reached the memo: %d result misses", st.ResultMisses)
	}
}

// TestStatsMarkSince pins the snapshot/delta mechanism: mark a named
// snapshot, run one computed selection, and the ?since= delta reports the
// per-window increments — an LP solve, a result miss, an admission grant,
// a disk-cache write, and (after a concurrent repeat) coalesced joins —
// while the cumulative counters keep growing. An unknown mark is a 404.
func TestStatsMarkSince(t *testing.T) {
	disk, err := diskcache.Open(diskcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(planner.New(planner.Config{
		MaxInflight: 2, Disk: disk,
	}), time.Minute))
	t.Cleanup(srv.Close)
	getStats := func(query string) (planner.Stats, int) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/stats" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var s planner.Stats
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
				t.Fatal(err)
			}
		}
		return s, resp.StatusCode
	}

	if _, code := getStats("?since=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown mark: status %d, want 404", code)
	}
	base, code := getStats("?mark=t0")
	if code != http.StatusOK {
		t.Fatalf("mark request: status %d", code)
	}

	// ieee57 runs the sparse path, so the window moves the revised-simplex
	// and dispatch-memo counters, not just the planner's own memo.
	req := planner.SelectRequest{
		Case: "ieee57", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 20, Seed: 1, Attacks: 10,
	}
	if code := postJSON(t, srv.URL+"/v1/select", req, nil); code != http.StatusOK {
		t.Fatalf("select status %d", code)
	}

	delta, code := getStats("?since=t0")
	if code != http.StatusOK {
		t.Fatalf("since request: status %d", code)
	}
	if delta.ResultMisses != 1 {
		t.Errorf("delta result_misses = %d, want 1", delta.ResultMisses)
	}
	if delta.LP.Solves <= 0 {
		t.Errorf("delta lp.solves = %d, want > 0", delta.LP.Solves)
	}
	// The PR 9 serving counters move in the same window: the computed
	// selection passed admission control and wrote its disk entry.
	if delta.Admission.Admitted != 1 || delta.Admission.Shed != 0 {
		t.Errorf("delta admission = %+v, want 1 admitted / 0 shed", delta.Admission)
	}
	if delta.Disk.Writes != 1 || delta.Disk.Hits != 0 {
		t.Errorf("delta disk_cache = %+v, want 1 write / 0 hits", delta.Disk)
	}
	cum, _ := getStats("")
	if cum.LP.Solves < base.LP.Solves+delta.LP.Solves {
		t.Errorf("cumulative solves %d < base %d + delta %d",
			cum.LP.Solves, base.LP.Solves, delta.LP.Solves)
	}

	// Re-marking overwrites: a fresh mark makes the next delta empty of
	// result traffic.
	if _, code := getStats("?mark=t0"); code != http.StatusOK {
		t.Fatalf("re-mark: status %d", code)
	}
	delta2, _ := getStats("?since=t0")
	if delta2.ResultMisses != 0 || delta2.ResultHits != 0 {
		t.Errorf("delta after re-mark has result traffic: %+v", delta2)
	}

	// Coalesced joins are window counters too: N identical in-flight
	// requests in a fresh window leave 1 miss and n-1 hits-or-joins.
	const n = 4
	var wg sync.WaitGroup
	conReq := planner.SelectRequest{
		Case: "ieee57", GammaThreshold: 0.07,
		Starts: 1, MaxEvals: 20, Seed: 1, Attacks: 10,
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postJSON(t, srv.URL+"/v1/select", conReq, nil)
		}()
	}
	wg.Wait()
	delta3, _ := getStats("?since=t0")
	if delta3.ResultMisses != 1 || delta3.ResultHits+delta3.ResultCoalesced != n-1 {
		t.Errorf("concurrent window: misses=%d hits=%d coalesced=%d, want 1 miss and %d hits+joins",
			delta3.ResultMisses, delta3.ResultHits, delta3.ResultCoalesced, n-1)
	}
}
