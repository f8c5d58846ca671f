//go:build race

package wal

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation counts that rely on pooled scratch do
// not hold.
const raceEnabled = true
