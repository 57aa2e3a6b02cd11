// Package par is the one worker pool of the reproduction: multi-start
// local searches, the max-γ corner poll, placement probes and the
// per-attack η′ loop all run through For, which takes its worker count
// from GOMAXPROCS.
//
// For promises nothing about which worker runs which index. Callers keep
// their results bitwise independent of the worker count by writing each
// index's output to its own slot, reducing the slots in index order, and
// scoping any state a worker carries across indices (a Farkas-ray index)
// to one index.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls body(i) once for every i in [0, n) on min(GOMAXPROCS, n)
// workers and returns when every call has returned. Worker w runs the
// contiguous block [w·n/W, (w+1)·n/W) in index order, so neighbouring
// slots are written by one worker and do not share cache lines across
// workers. Each worker first calls worker once to build its body, which
// may close over per-worker state (γ and dispatch sessions, scratch
// buffers). With one worker the loop runs inline on the calling
// goroutine. A panic in any body is re-raised on the calling goroutine
// after every worker has stopped, as it would be by the inline loop.
func For(n int, worker func() func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 0 {
		return
	}
	if workers == 1 {
		body := worker()
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			body := worker()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}
