//go:build race

package gridmtd_test

// raceEnabled reports a -race build, which runs several times slower, so
// the wall-clock latency budgets do not apply.
const raceEnabled = true
