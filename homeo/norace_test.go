//go:build !race

package homeo_test

const raceEnabled = false
