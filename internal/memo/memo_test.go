package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or a generous deadline passes.
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

// has reports whether key is stored, without counting a lookup or
// touching the LRU order.
func (c *LRU[K, V]) has(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

func constant(v int) func() (int, error) { return func() (int, error) { return v, nil } }

// TestLRUOrder: capacity bounds the map, the least recently looked-up key
// is evicted first, and a re-touched key survives.
func TestLRUOrder(t *testing.T) {
	c := New[string, int](2, nil)
	for _, k := range []string{"a", "b"} {
		if _, o, _ := c.Do(k, constant(1)); o != Created {
			t.Fatalf("fresh key %q: outcome %v, want Created", k, o)
		}
	}
	if _, o, _ := c.Do("a", constant(2)); o != Done {
		t.Fatalf("cached key: outcome %v, want Done", o)
	}
	// "b" is now the LRU entry; inserting "c" must evict it, not "a".
	c.Do("c", constant(3))
	if !c.has("a") || c.has("b") {
		t.Fatal("inserting past capacity did not evict the least recently looked-up key")
	}
	// That lookup of "a" left "c" behind it; looking "a" up again and
	// inserting "d" evicts "c".
	c.Do("a", constant(0))
	c.Do("d", constant(4))
	if c.has("c") || !c.has("a") || !c.has("d") {
		t.Fatal("eviction did not follow lookup order")
	}
	if len(c.byKey) != 2 || c.order.Len() != 2 {
		t.Fatalf("LRU grew past capacity: %d entries", len(c.byKey))
	}
	if v, _, _ := c.Do("a", constant(9)); v != 1 {
		t.Fatalf("kept value %d, want the first computation's 1", v)
	}
}

// TestSingleFlight: N concurrent callers of one key run one compute, and
// every lookup is classified before any waiting — one Created and N−1
// InFlight while the compute is still blocked, then Done afterwards.
func TestSingleFlight(t *testing.T) {
	c := New[string, int](4, nil)
	const n = 8
	release := make(chan struct{})
	var computes atomic.Int64
	var wg sync.WaitGroup
	vals := make([]int, n)
	outs := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], outs[i], _ = c.Do("k", func() (int, error) {
				computes.Add(1)
				<-release
				return 42, nil
			})
		}(i)
	}
	waitFor(t, "1 created + n-1 in flight", func() bool {
		return c.Count(Created) == 1 && c.Count(InFlight) == n-1
	})
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes for %d concurrent callers, want 1", got, n)
	}
	created := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d", i, vals[i])
		}
		if outs[i] == Created {
			created++
		} else if outs[i] != InFlight {
			t.Fatalf("caller %d outcome %v, want Created or InFlight", i, outs[i])
		}
	}
	if created != 1 {
		t.Fatalf("%d callers created the entry, want 1", created)
	}
	if _, o, _ := c.Do("k", constant(0)); o != Done || c.Count(Done) != 1 {
		t.Fatalf("lookup after completion: outcome %v, done count %d", o, c.Count(Done))
	}
}

var (
	errKept = errors.New("deterministic")
	errShed = errors.New("shed")
)

// TestErrors: a kept error is served from the memo; an error the drop
// predicate marks removes its entry, so the next lookup computes.
func TestErrors(t *testing.T) {
	c := New[string, int](4, func(err error) bool { return errors.Is(err, errShed) })
	fail := func(err error) func() (int, error) { return func() (int, error) { return 0, err } }
	c.Do("kept", fail(errKept))
	if _, o, err := c.Do("kept", constant(1)); o != Done || !errors.Is(err, errKept) {
		t.Fatalf("kept error: outcome %v err %v, want Done and the stored error", o, err)
	}
	if _, _, err := c.Do("shed", fail(errShed)); !errors.Is(err, errShed) {
		t.Fatalf("dropped error not returned to its caller: %v", err)
	}
	if c.has("shed") {
		t.Fatal("dropped error left its entry behind")
	}
	if v, o, err := c.Do("shed", constant(7)); o != Created || v != 7 || err != nil {
		t.Fatalf("retry after a dropped error: %v %v %v, want a fresh computation", v, o, err)
	}
}

// TestDropRemovesOnlyItsOwnEntry: an entry evicted while in flight and
// replaced by a newer entry for the same key is not removed when the old
// computation ends in a dropped error.
func TestDropRemovesOnlyItsOwnEntry(t *testing.T) {
	c := New[string, int](1, func(err error) bool { return errors.Is(err, errShed) })
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		_, _, err := c.Do("k", func() (int, error) {
			<-release
			return 0, errShed
		})
		done <- err
	}()
	waitFor(t, "first compute in flight", func() bool { return c.Count(Created) == 1 })
	c.Do("other", constant(1)) // evicts the in-flight "k"
	if v, o, _ := c.Do("k", constant(5)); o != Created || v != 5 {
		t.Fatalf("replacement entry: %v %v", v, o)
	}
	close(release)
	if err := <-done; !errors.Is(err, errShed) {
		t.Fatalf("evicted computation returned %v", err)
	}
	if v, o, _ := c.Do("k", constant(9)); o != Done || v != 5 {
		t.Fatalf("the old computation's drop removed the newer entry: %v %v", v, o)
	}
}

// TestPanicLeavesNoEntry: a compute that panics propagates the panic to
// its caller, releases its waiters, and leaves no entry; a waiter looks
// the key up again and computes it itself.
func TestPanicLeavesNoEntry(t *testing.T) {
	c := New[string, int](4, nil)
	release := make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do("k", func() (int, error) {
			<-release
			panic("compute blew up")
		})
	}()
	waitFor(t, "compute in flight", func() bool { return c.Count(Created) == 1 })
	waiter := make(chan [2]int)
	go func() {
		v, o, _ := c.Do("k", constant(3))
		waiter <- [2]int{v, int(o)}
	}()
	waitFor(t, "waiter joined", func() bool { return c.Count(InFlight) == 1 })
	close(release)
	if r := <-recovered; r != "compute blew up" {
		t.Fatalf("computing caller recovered %v, want the panic", r)
	}
	got := <-waiter
	if got[0] != 3 || Outcome(got[1]) != Created {
		t.Fatalf("released waiter got %v via outcome %v, want its own computation", got[0], Outcome(got[1]))
	}
	// Without waiters too: the panicked entry is gone at once.
	func() {
		defer func() { _ = recover() }()
		c.Do("p", func() (int, error) { panic("again") })
	}()
	if c.has("p") {
		t.Fatal("a panicked compute left its entry behind")
	}
}
