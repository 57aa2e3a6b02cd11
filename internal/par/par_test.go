package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestForRunsEveryIndexOnce checks, at several worker counts, that every
// index runs exactly once, that setup runs at most once per worker, and
// that n = 0 calls nothing.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 3, 8, 1000} {
			t.Run(fmt.Sprintf("procs%d/n%d", procs, n), func(t *testing.T) {
				withProcs(t, procs)
				hits := make([]atomic.Int32, n)
				var setups atomic.Int32
				For(n, func() func(int) {
					setups.Add(1)
					return func(i int) { hits[i].Add(1) }
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("index %d ran %d times", i, got)
					}
				}
				if s, limit := int(setups.Load()), min(procs, n); s > limit {
					t.Fatalf("%d setups, want at most %d", s, limit)
				}
			})
		}
	}
}

// TestForSerialIsInline checks that one worker runs the indices in order
// on the calling goroutine with a single setup.
func TestForSerialIsInline(t *testing.T) {
	withProcs(t, 1)
	var order []int
	setups := 0
	For(5, func() func(int) {
		setups++
		return func(i int) { order = append(order, i) }
	})
	if setups != 1 || fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("setups %d, order %v", setups, order)
	}
}

// TestForRepanics checks that a panic in a worker reaches the caller, so a
// caller's recover (the planner's panic guard) sees it at any worker
// count.
func TestForRepanics(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want boom", r)
				}
			}()
			For(100, func() func(int) {
				return func(i int) {
					if i == 37 {
						panic("boom")
					}
				}
			})
			t.Fatal("For returned normally")
		})
	}
}
