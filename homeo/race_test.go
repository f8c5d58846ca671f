//go:build race

package homeo_test

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation ceilings that count on pooled scratch do
// not hold.
const raceEnabled = true
