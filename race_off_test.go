//go:build !race

package gridmtd_test

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
