//go:build !race

package lia

const raceEnabled = false
