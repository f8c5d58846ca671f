//go:build race

package codec_test

// raceEnabled reports that the race detector is on: it allocates on its
// own, so allocation counts do not hold.
const raceEnabled = true
