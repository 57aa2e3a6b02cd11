package main

import (
	"syscall"
	"time"
)

// fineWindow is how long before a send time waitUntil stops using
// time.Sleep. A sleep of an idle Go process on Linux overshoots by up to
// about a millisecond, which an open loop would count as latency.
const fineWindow = 1500 * time.Microsecond

// waitUntil returns at offset due from t0. Inside fineWindow it sleeps in
// nanosleep slices of at most 100 µs, which wake within tens of
// microseconds without spinning a processor the daemon needs, and hold it
// from the other connections' goroutines for one slice at most.
func waitUntil(t0 time.Time, due time.Duration) {
	if wait := due - time.Since(t0) - fineWindow; wait > 0 {
		time.Sleep(wait)
	}
	for {
		left := due - time.Since(t0)
		if left <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(min(left, 100*time.Microsecond)))
		syscall.Nanosleep(&ts, nil) // an interrupted slice just ends early
	}
}
