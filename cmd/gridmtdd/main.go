// Command gridmtdd is the long-running MTD planner daemon: an HTTP
// front-end over the internal planner service, answering selection,
// γ-evaluation, day-sweep and placement requests for the embedded case
// registry with memoized case state — the second identical request is a
// cache lookup, and different requests on one case share its factorized
// engines.
//
// Usage:
//
//	gridmtdd [-addr 127.0.0.1:8642] [-backend auto] [-parallel 0] [-timeout 2m]
//	         [-max-inflight 0] [-queue-depth 0] [-disk-cache DIR] [-disk-cache-mb 256]
//	gridmtdd -route shard1:8643,shard2:8644 [-addr 127.0.0.1:8642] [-timeout 2m]
//
// Endpoints (JSON in, JSON out):
//
//	GET  /healthz        {"ok":true}
//	GET  /v1/cases       the case registry
//	GET  /v1/stats       cache hit/miss counters + γ backends served
//	                     (?mark=<name> stores a named snapshot,
//	                     ?since=<name> answers the delta against it)
//	POST /v1/select      planner.SelectRequest  -> planner.SelectResponse
//	POST /v1/gamma       planner.GammaRequest   -> planner.GammaResponse
//	                     (core.Gamma's bits: the reference pipeline's below
//	                     grid.SparseThreshold buses or under -backend dense,
//	                     within 1e-9 of it otherwise)
//	POST /v1/daysweep    planner.DaySweepRequest -> planner.DaySweepResponse
//	POST /v1/placement   planner.PlacementRequest -> planner.PlacementResponse
//
// Service hardening: every POST endpoint runs under a per-request deadline
// (-timeout; exceeding it answers 503 with a Retry-After header while the
// abandoned computation's result still lands in the memo for the retry),
// and SIGINT/SIGTERM trigger a graceful shutdown that stops accepting
// connections and drains in-flight requests before exiting.
//
// # Serving at scale
//
// Four layers turn one daemon into a fleet-scale service; cmd/gridmtdload
// is the load harness that measures them, and PERF.md records the numbers.
//
// Single-flight coalescing (always on): identical in-flight requests join
// one computation instead of racing the memo — N clients asking for the
// same cold selection cost one search. The /v1/stats result_coalesced
// counter reports the joins, and coalesced responses carry
// "source":"coalesced".
//
// Admission control (-max-inflight N -queue-depth D): at most N requests
// compute concurrently; up to D more wait in a bounded queue (default
// 4×N); beyond that the daemon load-sheds with 429 + Retry-After instead
// of collapsing. Queue wait is part of the served latency and is reported
// under /v1/stats "admission". Memo, coalesced and disk hits bypass the
// queue entirely, so warm traffic stays microseconds under overload.
//
// Persistent response cache (-disk-cache DIR [-disk-cache-mb M]): computed
// responses are written through to a directory of content-addressed JSON
// entries (atomic write-rename, LRU byte cap, corrupt entries skipped not
// fatal), keyed on the bitwise memo key plus the case registry content
// hash. A restarted daemon serves previously computed selections from
// disk in microseconds ("source":"disk") instead of re-running sub-second
// searches; stale entries from a different registry build can never serve.
//
// Router mode (-route shard1:port,shard2:port,...): the daemon becomes a
// thin router — no planner of its own — that rendezvous-hashes each
// request's (case, load_scale) over the shards and proxies, so N replicas
// split the case registry (each case's factorized engines and disk cache
// live on exactly one shard). GET /v1/stats answers the field-wise sum of
// all shard stats (?mark=/?since= pass through to every shard), /healthz
// aggregates shard health, and shard 429/503 responses (Retry-After
// included) pass through untouched.
//
// The stats workflow for monitors and load tests: GET /v1/stats?mark=t0
// stores a named snapshot, a later GET /v1/stats?since=t0 answers the
// field-wise delta — per-window hit/coalesce/shed/solve counters without
// racing absolute values.
//
// A selection request is parameterized exactly like one mtdscan sweep
// point, so
//
//	curl -s -X POST localhost:8642/v1/select -d \
//	  '{"case":"ieee57","gamma_threshold":0.05,"starts":2,"max_evals":40,"seed":1,"attacks":50}'
//
// answers with the γ / η'(δ) / cost row `mtdscan -case ieee57 -from 0.05
// -to 0.05` prints (the CI daemon-smoke job diffs the two). A request's
// "gamma_backend" may name auto, exact, sparse or sketch: every name is an
// alias of the exact γ evaluator, and an unknown one gets a 400.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"gridmtd"
	"gridmtd/internal/planner"
	"gridmtd/internal/planner/diskcache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gridmtdd: ")
	var (
		addr        = flag.String("addr", "127.0.0.1:8642", "listen address")
		backend     = flag.String("backend", "auto", "linear-algebra backend: auto, dense or sparse")
		parallel    = flag.Int("parallel", 0, "per-request search parallelism (0 = all cores); results are identical for any setting")
		maxCases    = flag.Int("cases", 8, "case LRU capacity ((case, load-scale) entries)")
		maxResults  = flag.Int("results", 256, "response memo capacity")
		timeout     = flag.Duration("timeout", 2*time.Minute, "per-request deadline (0 disables it)")
		maxInflight = flag.Int("max-inflight", 0, "admission control: max concurrently computing requests (0 = unbounded); cache hits bypass the limit")
		queueDepth  = flag.Int("queue-depth", 0, "admission control: max computations waiting for a slot (default 4x max-inflight); beyond it requests shed with 429")
		diskDir     = flag.String("disk-cache", "", "persistent response cache directory (empty = off); survives restarts")
		diskMB      = flag.Int("disk-cache-mb", 256, "disk cache size cap in MiB (LRU eviction past it)")
		route       = flag.String("route", "", "router mode: comma-separated shard addresses; proxy requests by rendezvous-hashing (case, load_scale) instead of serving a planner")
	)
	flag.Parse()

	if *route != "" {
		rt, err := newRouter(strings.Split(*route, ","))
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Addr: *addr, Handler: logRequests(rt.handler())}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			log.Fatal(err)
		}
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		log.Printf("routing MTD planner traffic on %s over %d shards: %s", *addr, len(rt.shards), strings.Join(rt.shards, ", "))
		if err := serveUntilSignal(srv, ln, stop); err != nil {
			log.Fatal(err)
		}
		log.Print("drained; bye")
		return
	}

	b, err := gridmtd.ParseBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}
	// The process default drives the γ-kernel seam; the planner config
	// drives the dispatch engines. One daemon = one backend contract.
	gridmtd.SetDefaultBackend(b)
	if *parallel > 0 {
		runtime.GOMAXPROCS(*parallel)
	}

	var disk *diskcache.Cache
	if *diskDir != "" {
		disk, err = diskcache.Open(diskcache.Config{Dir: *diskDir, MaxBytes: int64(*diskMB) << 20})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("persistent response cache at %s (%d entries resident, cap %d MiB)", *diskDir, disk.Stats().Entries, *diskMB)
	}
	p := planner.New(planner.Config{
		Backend:     b,
		MaxCases:    *maxCases,
		MaxResults:  *maxResults,
		Parallelism: *parallel,
		MaxInflight: *maxInflight,
		QueueDepth:  *queueDepth,
		Disk:        disk,
	})
	srv := &http.Server{Addr: *addr, Handler: newHandler(p, *timeout)}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	log.Printf("serving MTD planner on %s (backend %s, request timeout %s)", *addr, *backend, *timeout)
	if err := serveUntilSignal(srv, ln, stop); err != nil {
		log.Fatal(err)
	}
	log.Print("drained; bye")
}

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before giving up and closing their connections.
const shutdownGrace = 15 * time.Second

// serveUntilSignal serves on ln until a signal arrives, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// shutdownGrace to finish, and the function returns once everything is
// drained (nil) or the grace period expired (the Shutdown error).
func serveUntilSignal(srv *http.Server, ln net.Listener, stop <-chan os.Signal) error {
	done := make(chan error, 1)
	go func() {
		<-stop
		log.Print("signal received, draining in-flight requests")
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// newHandler wires the planner's request types to the HTTP surface. Every
// POST endpoint runs under the per-request deadline; the health, registry
// and stats GETs answer instantly and stay outside it.
func newHandler(p *planner.Planner, timeout time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /v1/cases", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, gridmtd.Cases())
	})
	// The counters behind /v1/stats are cumulative for the process.
	// ?mark=<name> additionally stores the answered snapshot under the
	// name; a later ?since=<name> answers with the field-wise delta
	// against it (planner.Stats.Delta), so monitors and CI assert
	// per-window increments without racing absolute values. Marks are a
	// small LRU — old names silently age out and an unknown ?since= is a
	// 404.
	marks := newStatsMarks(32)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		cur := p.Stats()
		out := cur
		if name := r.URL.Query().Get("since"); name != "" {
			base, ok := marks.get(name)
			if !ok {
				writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("unknown stats mark %q", name)})
				return
			}
			out = cur.Delta(base)
		}
		if name := r.URL.Query().Get("mark"); name != "" {
			marks.put(name, cur)
		}
		writeJSON(w, http.StatusOK, out)
	})
	post := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, withDeadline(h, timeout))
	}
	post("POST /v1/select", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func(req planner.SelectRequest) (any, error) { return p.Select(req) })
	})
	post("POST /v1/gamma", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func(req planner.GammaRequest) (any, error) { return p.Gamma(req) })
	})
	post("POST /v1/daysweep", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func(req planner.DaySweepRequest) (any, error) { return p.DaySweep(req) })
	})
	post("POST /v1/placement", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func(req planner.PlacementRequest) (any, error) { return p.Placement(req) })
	})
	return logRequests(mux)
}

// retryAfterSeconds is the back-off hint on load-shed (429) and
// deadline (503) responses: the memo completes abandoned computations
// and sheds drain at the next slot, so an immediate-ish retry is cheap.
const retryAfterSeconds = "1"

// withDeadline bounds one request's wall clock: past the timeout the
// client gets 503 with a Retry-After header and a JSON body explaining
// that the abandoned computation still completes into the memo — the
// retry the header invites picks the result up as a cache hit rather
// than a second search. (A hand-rolled timeout wrapper rather than
// http.TimeoutHandler: the 503 needs its own headers, which
// TimeoutHandler cannot set without leaking them onto success
// responses.)
func withDeadline(h http.Handler, timeout time.Duration) http.Handler {
	if timeout <= 0 {
		return h
	}
	body, _ := json.Marshal(map[string]any{"error": fmt.Sprintf("request deadline (%s) exceeded; the computation continues and its result will be memoized — retry to pick it up", timeout)})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		rec := &bufferedResponse{header: http.Header{}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, r.WithContext(ctx))
		}()
		select {
		case <-done:
			rec.copyTo(w)
		case <-ctx.Done():
			// The handler goroutine keeps writing into its private buffer
			// until the planner call finishes; nothing reads it again.
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", retryAfterSeconds)
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write(body)
		}
	})
}

// bufferedResponse captures a handler's full response in memory so the
// deadline wrapper can either forward it or abandon it wholesale.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	status := b.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	w.Write(b.body.Bytes())
}

// serve decodes one request body, runs the planner call and writes the
// response, mapping planner errors to HTTP statuses.
func serve[Req any](w http.ResponseWriter, r *http.Request, call func(Req) (any, error)) {
	var req Req
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("invalid request: %v", err)})
		return
	}
	resp, err := call(req)
	if err != nil {
		status := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, planner.ErrUnreachable):
			status = http.StatusConflict
		case errors.Is(err, planner.ErrOverloaded):
			// Load shed: tell the client when to come back. The result was
			// deliberately not memoized, so the retry re-enters the queue.
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", retryAfterSeconds)
		case errors.Is(err, planner.ErrPanicked):
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

// logRequests is a minimal access log.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s (%.1f ms)", r.Method, r.URL.Path, float64(time.Since(start).Microseconds())/1e3)
	})
}

// statsMarks is the named-snapshot store behind /v1/stats?mark= /
// ?since=: a small mutex-guarded LRU of planner.Stats snapshots keyed by
// client-chosen names.
type statsMarks struct {
	cap int

	mu    sync.Mutex
	snaps map[string]planner.Stats
	order []string // oldest first
}

func newStatsMarks(capacity int) *statsMarks {
	return &statsMarks{cap: capacity, snaps: map[string]planner.Stats{}}
}

func (m *statsMarks) put(name string, s planner.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.snaps[name]; ok {
		for i, n := range m.order {
			if n == name {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
	m.snaps[name] = s
	m.order = append(m.order, name)
	for len(m.order) > m.cap {
		delete(m.snaps, m.order[0])
		m.order = m.order[1:]
	}
}

func (m *statsMarks) get(name string) (planner.Stats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.snaps[name]
	return s, ok
}
