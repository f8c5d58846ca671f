package main

import (
	"testing"
	"time"
)

// TestServiceTimeFlagMapping: -exec-time 0 must not reach the engine as
// the zero that selects its 2 ms default.
func TestServiceTimeFlagMapping(t *testing.T) {
	for flagValue, want := range map[time.Duration]time.Duration{
		0:                    time.Nanosecond,
		time.Nanosecond:      time.Nanosecond,
		2 * time.Millisecond: 2 * time.Millisecond,
		time.Second:          time.Second,
	} {
		if got := serviceTime(flagValue); got != want {
			t.Errorf("serviceTime(%v) = %v, want %v", flagValue, got, want)
		}
	}
}
