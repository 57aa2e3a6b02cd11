package planner

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMemoSingleFlightCoalescing pins the coalescing contract
// deterministically: N identical requests in flight run exactly one
// computation — the first caller misses, every other joins it (counted as
// result_coalesced, not result_hits) and shares the same response. The
// compute blocks until the counters prove all N callers are in flight, so
// the assertion cannot race the computation finishing.
func TestMemoSingleFlightCoalescing(t *testing.T) {
	p := New(Config{})
	const n = 8
	release := make(chan struct{})
	var computes atomic.Int64
	want := &SelectResponse{Case: "test", Gamma: 0.5}
	var wg sync.WaitGroup
	responses := make([]any, n)
	sources := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _, source, err := p.memo("select|coalesce-test", func() (any, error) {
				computes.Add(1)
				<-release
				return want, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			responses[i], sources[i] = resp, source
		}(i)
	}
	// All N callers are guaranteed in flight once the counters say so —
	// only then does the single computation get to finish.
	waitFor(t, "1 miss + n-1 coalesced", func() bool {
		st := p.Stats()
		return st.ResultMisses == 1 && st.ResultCoalesced == n-1
	})
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for %d identical in-flight requests, want exactly 1", got, n)
	}
	st := p.Stats()
	if st.ResultMisses != 1 || st.ResultCoalesced != n-1 || st.ResultHits != 0 {
		t.Errorf("stats misses=%d coalesced=%d hits=%d, want 1/%d/0",
			st.ResultMisses, st.ResultCoalesced, st.ResultHits, n-1)
	}
	var firsts, joins int
	for i := 0; i < n; i++ {
		if responses[i] != any(want) {
			t.Fatalf("caller %d got a different response object", i)
		}
		switch sources[i] {
		case SourceComputed:
			firsts++
		case SourceCoalesced:
			joins++
		default:
			t.Errorf("caller %d source %q", i, sources[i])
		}
	}
	if firsts != 1 || joins != n-1 {
		t.Errorf("sources: %d computed / %d coalesced, want 1/%d", firsts, joins, n-1)
	}
	// A request after completion is a plain memo hit.
	if _, _, source, err := p.memo("select|coalesce-test", func() (any, error) {
		t.Error("memo hit recomputed")
		return nil, nil
	}); err != nil || source != SourceMemo {
		t.Errorf("post-completion request: source=%q err=%v, want memo hit", source, err)
	}
}

// TestConcurrentIdenticalSelects drives the same contract through the
// public Select path under the race detector: N identical concurrent
// requests yield one computation and bitwise-identical responses.
func TestConcurrentIdenticalSelects(t *testing.T) {
	p := New(Config{})
	const n = 6
	var wg sync.WaitGroup
	resps := make([]*SelectResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = p.Select(quickSelect(0.1))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.ResultMisses != 1 {
		t.Errorf("result_misses = %d for %d identical requests, want exactly 1 computation", st.ResultMisses, n)
	}
	if st.ResultHits+st.ResultCoalesced != n-1 {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want %d", st.ResultHits, st.ResultCoalesced,
			st.ResultHits+st.ResultCoalesced, n-1)
	}
	base := *resps[0]
	base.CacheHit, base.Source = false, ""
	for i := 1; i < n; i++ {
		got := *resps[i]
		got.CacheHit, got.Source = false, ""
		if !reflect.DeepEqual(base, got) {
			t.Errorf("response %d differs from response 0:\n%+v\n%+v", i, base, got)
		}
	}
}

// TestMemoShedNotMemoized pins the admission-control contract at the memo
// layer: with 1 worker slot and a queue depth of 1, a third concurrent
// computation sheds with ErrOverloaded, the shed entry is evicted (never
// replayed from cache), and a retry after drain computes normally.
func TestMemoShedNotMemoized(t *testing.T) {
	p := New(Config{MaxInflight: 1, QueueDepth: 1})
	release := make(chan struct{})
	var wg sync.WaitGroup
	// Caller A holds the only worker slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, err := p.memo("select|a", func() (any, error) {
			<-release
			return &SelectResponse{Case: "a"}, nil
		})
		if err != nil {
			t.Errorf("caller a: %v", err)
		}
	}()
	waitFor(t, "slot held", func() bool { return p.adm.stats().Admitted == 1 })
	// Caller B fills the queue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, err := p.memo("select|b", func() (any, error) {
			return &SelectResponse{Case: "b"}, nil
		})
		if err != nil {
			t.Errorf("caller b: %v", err)
		}
	}()
	waitFor(t, "queue full", func() bool {
		p.adm.mu.Lock()
		defer p.adm.mu.Unlock()
		return p.adm.waiting == 1
	})
	// Caller C sheds immediately.
	_, _, _, err := p.memo("select|c", func() (any, error) {
		t.Error("shed request computed")
		return nil, nil
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated memo returned %v, want ErrOverloaded", err)
	}
	if st := p.adm.stats(); st.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed)
	}
	p.mu.Lock()
	_, stillThere := p.results["select|c"]
	p.mu.Unlock()
	if stillThere {
		t.Error("shed result left in the memo — a retry would replay the 429")
	}
	close(release)
	wg.Wait()
	// The retry computes (and reports the queue drain, not the shed).
	resp, _, source, err := p.memo("select|c", func() (any, error) {
		return &SelectResponse{Case: "c"}, nil
	})
	if err != nil || source != SourceComputed || resp.(*SelectResponse).Case != "c" {
		t.Errorf("retry after drain: resp=%v source=%q err=%v", resp, source, err)
	}
	if st := p.Stats(); st.Admission.Shed != 1 || st.Admission.Admitted != 3 || st.Admission.Queued != 1 {
		t.Errorf("admission stats = %+v, want shed=1 admitted=3 queued=1", st.Admission)
	}
}

// TestAdmissionQueueWaitCounted pins the latency accounting: a queued
// computation's served elapsed time includes its queue wait, and the
// cumulative wait shows up in the admission stats.
func TestAdmissionQueueWaitCounted(t *testing.T) {
	p := New(Config{MaxInflight: 1, QueueDepth: 2})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.memo("select|hold", func() (any, error) {
			<-release
			return &SelectResponse{}, nil
		})
	}()
	waitFor(t, "slot held", func() bool { return p.adm.stats().Admitted == 1 })
	const hold = 30 * time.Millisecond
	var queuedElapsed time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, elapsed, _, err := p.memo("select|queued", func() (any, error) {
			return &SelectResponse{}, nil
		})
		if err != nil {
			t.Errorf("queued caller: %v", err)
		}
		queuedElapsed = elapsed
	}()
	waitFor(t, "caller queued", func() bool {
		p.adm.mu.Lock()
		defer p.adm.mu.Unlock()
		return p.adm.waiting == 1
	})
	time.Sleep(hold)
	close(release)
	wg.Wait()
	if queuedElapsed < hold {
		t.Errorf("queued request's elapsed %v < queue wait %v — queue time must be part of served latency", queuedElapsed, hold)
	}
	if st := p.adm.stats(); st.Queued != 1 || time.Duration(st.QueueWaitMicros)*time.Microsecond < hold/2 {
		t.Errorf("admission stats %+v, want 1 queued with >= %v cumulative wait", st, hold/2)
	}
}

// TestMemoPanicNotMemoized pins the panic contract: a computation that
// panics returns ErrPanicked to its leader and to every coalesced joiner,
// the entry is evicted, and the next identical request recomputes instead
// of replaying a nil response.
func TestMemoPanicNotMemoized(t *testing.T) {
	p := New(Config{})
	const n = 4
	release := make(chan struct{})
	var computes atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], _, _, errs[i] = p.memo("gamma|panic-test", func() (any, error) {
				computes.Add(1)
				<-release
				panic("kernel blew up")
			})
		}(i)
	}
	waitFor(t, "1 miss + n-1 coalesced", func() bool {
		st := p.Stats()
		return st.ResultMisses == 1 && st.ResultCoalesced == n-1
	})
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for %d identical in-flight requests, want 1", got, n)
	}
	for i := 0; i < n; i++ {
		if !errors.Is(errs[i], ErrPanicked) || resps[i] != nil {
			t.Errorf("caller %d: resp=%v err=%v, want nil and ErrPanicked", i, resps[i], errs[i])
		}
	}
	p.mu.Lock()
	_, stillThere := p.results["gamma|panic-test"]
	p.mu.Unlock()
	if stillThere {
		t.Error("panicked result left in the memo")
	}
	want := &GammaResponse{Case: "retry", Gamma: 0.25}
	resp, _, source, err := p.memo("gamma|panic-test", func() (any, error) { return want, nil })
	if err != nil || source != SourceComputed || resp != any(want) {
		t.Errorf("retry after panic: resp=%v source=%q err=%v, want a fresh computation", resp, source, err)
	}
}
