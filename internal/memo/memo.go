// Package memo is the one in-process memo of the reproduction: a keyed,
// single-flight LRU behind the dispatch engines' solve memos, the
// planner's case table and response memo, and the scenario runner's
// engine cache.
//
// The contract:
//   - a lookup is classified when it is made, before any waiting
//     (Outcome);
//   - the caller that creates an entry computes it; later callers wait
//     for it or read it;
//   - results and errors are kept, except an error the drop predicate
//     marks, which removes the entry if it is still the stored one;
//   - a compute that panics leaves no entry behind: its waiters are
//     released and look the key up again, and the panic propagates to the
//     caller that computed;
//   - past a fixed capacity the least recently looked-up entry is
//     evicted; an evicted entry still in flight completes for the callers
//     that hold it.
package memo

import (
	"container/list"
	"sync"
)

// Outcome classifies a lookup.
type Outcome int

const (
	// Created: the lookup made the entry and its caller computed it.
	Created Outcome = iota
	// InFlight: the lookup joined a computation that was still running.
	InFlight
	// Done: the lookup read a finished entry.
	Done
)

// LRU is a keyed single-flight memo holding at most a fixed number of
// entries. It is safe for concurrent use.
type LRU[K comparable, V any] struct {
	capacity int
	drop     func(error) bool

	mu     sync.Mutex
	byKey  map[K]*list.Element // values are *entry[K, V]
	order  list.List           // front = most recently looked up
	counts [Done + 1]int64
}

type entry[K comparable, V any] struct {
	key      K
	done     chan struct{} // closed when the computation returned or panicked
	val      V
	err      error
	panicked bool
}

// New returns an empty LRU holding at most capacity entries. drop marks
// the errors that must not be kept; nil keeps every error.
func New[K comparable, V any](capacity int, drop func(error) bool) *LRU[K, V] {
	return &LRU[K, V]{capacity: capacity, drop: drop, byKey: map[K]*list.Element{}}
}

// Do returns the value and error kept under key, calling compute on this
// goroutine if the lookup creates the entry. The Outcome classifies the
// lookup that served.
func (c *LRU[K, V]) Do(key K, compute func() (V, error)) (V, Outcome, error) {
	for {
		e, o := c.lookup(key)
		if o == Created {
			c.fill(e, compute)
			return e.val, o, e.err
		}
		<-e.done
		if !e.panicked {
			return e.val, o, e.err
		}
	}
}

// Count returns how many lookups had outcome o.
func (c *LRU[K, V]) Count(o Outcome) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[o]
}

// lookup finds or creates key's entry, classifies and counts the lookup,
// and evicts past capacity.
func (c *LRU[K, V]) lookup(key K) (*entry[K, V], Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var e *entry[K, V]
	o := Created
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		e = el.Value.(*entry[K, V])
		o = InFlight
		select {
		case <-e.done:
			o = Done
		default:
		}
	} else {
		e = &entry[K, V]{key: key, done: make(chan struct{})}
		c.byKey[key] = c.order.PushFront(e)
		if c.order.Len() > c.capacity {
			old := c.order.Back()
			c.order.Remove(old)
			delete(c.byKey, old.Value.(*entry[K, V]).key)
		}
	}
	c.counts[o]++
	return e, o
}

// fill runs compute into e and releases its waiters. A panic or a dropped
// error removes e first, so released waiters find no entry.
func (c *LRU[K, V]) fill(e *entry[K, V], compute func() (V, error)) {
	e.panicked = true
	defer func() {
		if e.panicked || e.err != nil && c.drop != nil && c.drop(e.err) {
			c.forget(e)
		}
		close(e.done)
	}()
	e.val, e.err = compute()
	e.panicked = false
}

// forget removes e if it is still the entry stored under its key.
func (c *LRU[K, V]) forget(e *entry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.key]; ok && el.Value == any(e) {
		c.order.Remove(el)
		delete(c.byKey, e.key)
	}
}
