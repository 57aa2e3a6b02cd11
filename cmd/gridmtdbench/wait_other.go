//go:build !linux

package main

import "time"

// waitUntil returns at offset due from t0. Off Linux, where the benchmark
// cannot read /proc and does not run, a plain sleep keeps it building.
func waitUntil(t0 time.Time, due time.Duration) {
	time.Sleep(due - time.Since(t0))
}
