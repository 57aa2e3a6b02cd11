//go:build race

package core

// raceEnabled reports a -race build: sync.Pool drops items at random, so
// allocation counts through pooled workspaces are not steady, and the
// reference pipeline runs several times slower.
const raceEnabled = true
