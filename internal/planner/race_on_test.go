//go:build race

package planner

// raceEnabled reports a -race build: the instrumented build moves values
// boxed in interfaces to the heap, so allocation counts differ.
const raceEnabled = true
