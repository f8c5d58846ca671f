//go:build !race

package lang

const raceEnabled = false
