//go:build !race

package treaty_test

const raceEnabled = false
