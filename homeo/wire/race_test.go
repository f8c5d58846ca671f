//go:build race

package wire

// raceEnabled reports that the race detector is on: it allocates on its
// own, so allocation bounds do not hold.
const raceEnabled = true
