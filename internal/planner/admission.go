package planner

import (
	"sync"
	"time"

	"gridmtd/internal/metrics"
)

// AdmissionStats counts the bounded work queue's traffic. Queue wait is
// part of every computed request's served latency (the memo times the
// acquire), so the cumulative wait here is the load-dependent share of it.
type AdmissionStats struct {
	// Admitted counts computations that got a worker slot (immediately or
	// after queueing); Queued counts the subset that had to wait.
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	// Shed counts computations rejected with ErrOverloaded because the
	// queue was at depth (HTTP surfaces them as 429 + Retry-After).
	Shed int64 `json:"shed"`
	// QueueWaitMicros is the cumulative time queued computations spent
	// waiting for a slot.
	QueueWaitMicros int64 `json:"queue_wait_micros"`
}

// admission is the planner's bounded work queue: a counting semaphore of
// worker slots plus a cap on how many computations may wait for one.
// Memo and disk hits never pass through it — only the requests that are
// about to run a real search compete for slots, so warm traffic stays
// microseconds even when the compute queue is saturated.
type admission struct {
	sem   chan struct{}
	depth int

	mu      sync.Mutex
	waiting int

	counts metrics.Sum[AdmissionStats]
}

// newAdmission builds the queue; maxInflight <= 0 disables admission
// control entirely (the returned nil is a no-op).
func newAdmission(maxInflight, queueDepth int) *admission {
	if maxInflight <= 0 {
		return nil
	}
	if queueDepth <= 0 {
		queueDepth = 4 * maxInflight
	}
	return &admission{sem: make(chan struct{}, maxInflight), depth: queueDepth}
}

// acquire takes a worker slot, queueing up to the depth cap. Past the cap
// it sheds immediately with ErrOverloaded — a fast rejection the HTTP
// layer turns into 429 + Retry-After, so clients back off instead of
// piling onto an unbounded queue.
func (a *admission) acquire() error {
	if a == nil {
		return nil
	}
	select {
	case a.sem <- struct{}{}:
		a.counts.Add(AdmissionStats{Admitted: 1})
		return nil
	default:
	}
	a.mu.Lock()
	if a.waiting >= a.depth {
		a.mu.Unlock()
		a.counts.Add(AdmissionStats{Shed: 1})
		return ErrOverloaded
	}
	a.waiting++
	a.mu.Unlock()
	// Counted at queue entry, not exit, so /v1/stats shows the waiter
	// while it waits.
	a.counts.Add(AdmissionStats{Queued: 1})
	start := time.Now()
	a.sem <- struct{}{}
	a.mu.Lock()
	a.waiting--
	a.mu.Unlock()
	a.counts.Add(AdmissionStats{Admitted: 1, QueueWaitMicros: time.Since(start).Microseconds()})
	return nil
}

// release returns a worker slot.
func (a *admission) release() {
	if a != nil {
		<-a.sem
	}
}

// stats snapshots the counters.
func (a *admission) stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	return a.counts.Load()
}
