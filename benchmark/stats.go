package main

import (
	"math"
	"sort"
	"time"
)

// epoch is the origin of every timestamp the benchmark keeps: samples and
// spans hold offsets from it, which keeps them free of pointers.
var epoch = time.Now()

// sample is one completed operation as its caller saw it.
type sample struct {
	at     time.Duration // completion, since epoch
	lat    time.Duration
	slow   bool // the workload's coordinated case: synced commit, cache-miss registration
	traced bool // spans were recorded for it
}

// percentile returns the p-th percentile (0..100) of vs by linear
// interpolation between closest ranks; vs must be sorted ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 { return percentile(sortedCopy(vs), 50) }

// tailPercentile is the p-th percentile, or 0 when fewer than ten samples
// lie beyond it: a tail that thin is noise, not a measurement.
func tailPercentile(vs []float64, p float64) float64 {
	if float64(len(vs))*(100-p)/100 < 10 {
		return 0
	}
	return percentile(sortedCopy(vs), p)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), so spreads
// computed here match the ones the benchmark contract is judged by.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

// relSpread is the interquartile range as a share of the median.
func relSpread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(median(vs))
}

// opsPerSlice cuts the window starting at from (since epoch) into whole
// slices of the given length and counts the operations completed per
// second in each. It is printed beside the metrics so a stall or a drift
// inside the window is visible; the metrics themselves use the whole
// window.
func opsPerSlice(samples []sample, from, window, slice time.Duration) []float64 {
	n := int(window / slice)
	if n == 0 {
		n, slice = 1, window
	}
	counts := make([]float64, n)
	for _, s := range samples {
		if i := int((s.at - from) / slice); i < n { // the ragged tail past the last whole slice is dropped
			counts[i] += 1 / slice.Seconds()
		}
	}
	return counts
}

func latenciesUS(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, float64(s.lat)/float64(time.Microsecond))
		}
	}
	return out
}

func all(sample) bool    { return true }
func slow(s sample) bool { return s.slow }
func fast(s sample) bool { return !s.slow }
