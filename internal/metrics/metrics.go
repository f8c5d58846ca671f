// Package metrics collects the measurements the paper's evaluation
// reports: per-transaction latency percentiles (Figures 10, 13, 16, 19,
// 21, 27), throughput (Figures 11, 14, 17, 20, 22, 25, 28), synchronization
// ratio (Figures 12, 15, 18, 26, 29), and time breakdowns (Figure 24).
package metrics

import (
	"sort"

	"repro/internal/rt"
)

// histChunk is the fixed sample-chunk size. Chunks make the record path
// allocation-free in steady state: Add writes into the current chunk's
// preallocated capacity, and growing never copies existing samples (the
// old flat-slice design re-copied the whole run's samples on every
// doubling). A fresh chunk is allocated only once per histChunk samples.
const histChunk = 8192

// Histogram records latency samples and reports percentiles.
type Histogram struct {
	chunks [][]rt.Duration // all full except possibly the last
	n      int
	// flat is the reused sort scratch for the read side (percentiles are
	// computed over a flattened copy). Valid while sorted is true; any Add
	// invalidates it. Readers hold the runtime's execution right, so the
	// shared scratch is not a race.
	flat   []rt.Duration
	sorted bool
}

// Add records a sample.
func (h *Histogram) Add(d rt.Duration) {
	if k := len(h.chunks); k == 0 || len(h.chunks[k-1]) == cap(h.chunks[k-1]) {
		h.chunks = append(h.chunks, make([]rt.Duration, 0, histChunk))
	}
	k := len(h.chunks) - 1
	h.chunks[k] = append(h.chunks[k], d)
	h.n++
	h.sorted = false
}

// N returns the sample count.
func (h *Histogram) N() int { return h.n }

// AddAll merges another histogram's samples (used to aggregate per-cell
// histograms across a sweep).
func (h *Histogram) AddAll(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	for _, c := range o.chunks {
		for _, d := range c {
			h.Add(d)
		}
	}
}

// ensureSorted (re)builds the flat sorted view of all samples.
func (h *Histogram) ensureSorted() {
	if h.sorted {
		return
	}
	if cap(h.flat) < h.n {
		h.flat = make([]rt.Duration, 0, h.n)
	}
	h.flat = h.flat[:0]
	for _, c := range h.chunks {
		h.flat = append(h.flat, c...)
	}
	sort.Slice(h.flat, func(i, j int) bool { return h.flat[i] < h.flat[j] })
	h.sorted = true
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank; zero when empty.
func (h *Histogram) Percentile(p float64) rt.Duration {
	if h.n == 0 {
		return 0
	}
	h.ensureSorted()
	rank := int(p / 100 * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	if rank < 0 {
		rank = 0
	}
	return h.flat[rank]
}

// Mean returns the arithmetic mean.
func (h *Histogram) Mean() rt.Duration {
	if h.n == 0 {
		return 0
	}
	var sum rt.Duration
	for _, c := range h.chunks {
		for _, s := range c {
			sum += s
		}
	}
	return sum / rt.Duration(h.n)
}

// Max returns the largest sample.
func (h *Histogram) Max() rt.Duration {
	var max rt.Duration
	for _, c := range h.chunks {
		for _, s := range c {
			if s > max {
				max = s
			}
		}
	}
	return max
}

// Breakdown accumulates where violating transactions spend time
// (Figure 24): local execution, treaty solving, and communication.
type Breakdown struct {
	Local  rt.Duration
	Solver rt.Duration
	Comm   rt.Duration
	N      int64
}

// Add accumulates one transaction's breakdown.
func (b *Breakdown) Add(local, solver, comm rt.Duration) {
	b.Local += local
	b.Solver += solver
	b.Comm += comm
	b.N++
}

// Avg returns the per-transaction averages.
func (b *Breakdown) Avg() (local, solver, comm rt.Duration) {
	if b.N == 0 {
		return 0, 0, 0
	}
	n := rt.Duration(b.N)
	return b.Local / n, b.Solver / n, b.Comm / n
}

// Collector aggregates a run's measurements.
type Collector struct {
	// Latency histogram over committed transactions.
	Latency Histogram
	// Committed counts successful transactions; Synced counts those that
	// triggered treaty renegotiation; AbortedConflicts counts
	// lock-timeout/deadlock aborts (2PC conflicts).
	Committed        int64
	Synced           int64
	AbortedConflicts int64
	// Dropped counts requests abandoned on unrecoverable execution errors
	// (livelock bailouts, protocol errors) rather than retried.
	Dropped int64
	// Livelocked counts requests that hit the retry-attempt bound in the
	// homeostasis executor. Every livelocked request is also Dropped by
	// its caller; the distinct counter separates livelock bailouts from
	// other unrecoverable errors.
	Livelocked int64
	// TreatyGenFailures counts cleanup rounds whose treaty generation
	// failed after the winning transaction had already committed at every
	// site. The protocol installs safe pin treaties and continues (the
	// commit stands); the counter surfaces the degradation.
	TreatyGenFailures int64
	// CoWinnerCommits counts transactions committed as co-winners of a
	// batched cleanup round (Options.Alloc enabled): queued violators
	// folded into another winner's synchronization instead of paying
	// their own two communication rounds.
	CoWinnerCommits int64
	// NegotiationLatency records each cleanup round's total communication
	// time (state-synchronization round plus treaty-distribution round)
	// as observed by the coordinating site — the per-negotiation
	// round-trip cost the site fabric actually paid.
	NegotiationLatency Histogram
	// FabricErrors counts site-fabric degradations outside the request
	// path: failed state/treaty installs at a peer and expired remote
	// round grants. The protocol keeps running (the next violation
	// resynchronizes); the counter surfaces that it happened.
	FabricErrors int64
	// RoundsAdopted counts remote rounds whose coordinator vanished after
	// their state install completed here: the granted site adopted the
	// winning commit into its own log and degraded the units to pin
	// treaties. RoundsAborted counts coordinator-failover releases where
	// round 1 never closed locally — nothing was committed, so the grant
	// was dropped with state and treaties untouched.
	RoundsAdopted int64
	RoundsAborted int64
	// AnalysisCacheHits/Misses count class registrations served by the
	// artifact cache (an isomorphic family shared its symbolic table and
	// guard preprocessing) vs. analyzed from scratch.
	AnalysisCacheHits   int64
	AnalysisCacheMisses int64
	// SolverWarmStarts counts negotiation solves where the warm-start
	// fast path produced the configuration without entering the MaxSAT
	// loop; SolverFallbacks counts warm attempts that hit a theory
	// conflict and fell back to the full solve.
	SolverWarmStarts int64
	SolverFallbacks  int64
	// ViolationBreakdown is the Figure 24 split for transactions that
	// required synchronization.
	ViolationBreakdown Breakdown
	// Measuring gates collection (warm-up phase records nothing).
	Measuring bool
	// Start/End of the measuring window (virtual time).
	Start, End rt.Time
}

// RecordCommit records a committed transaction's latency.
func (c *Collector) RecordCommit(lat rt.Duration, synced bool) {
	if !c.Measuring {
		return
	}
	c.Committed++
	c.Latency.Add(lat)
	if synced {
		c.Synced++
	}
}

// RecordConflictAbort records an abort due to contention.
func (c *Collector) RecordConflictAbort() {
	if !c.Measuring {
		return
	}
	c.AbortedConflicts++
}

// RecordDropped records a request abandoned on an unrecoverable
// execution error.
func (c *Collector) RecordDropped() {
	if !c.Measuring {
		return
	}
	c.Dropped++
}

// RecordLivelock records a request that hit the executor's retry-attempt
// bound. The caller still records the drop; this is the distinct counter.
func (c *Collector) RecordLivelock() {
	if !c.Measuring {
		return
	}
	c.Livelocked++
}

// RecordTreatyGenFailure records a cleanup round that committed its
// winning transaction but failed to generate fresh treaties (the system
// installed safe pin treaties instead).
func (c *Collector) RecordTreatyGenFailure() {
	if !c.Measuring {
		return
	}
	c.TreatyGenFailures++
}

// RecordNegotiation records one cleanup round's communication latency.
func (c *Collector) RecordNegotiation(d rt.Duration) {
	if !c.Measuring {
		return
	}
	c.NegotiationLatency.Add(d)
}

// RecordFabricError records a site-fabric degradation (failed peer
// install, expired round grant). Not gated on Measuring: degradations are
// operational signals, not workload measurements.
func (c *Collector) RecordFabricError() {
	c.FabricErrors++
}

// RecordRoundAdopted records a coordinator failover that adopted the
// round's winning commit (its state install had completed locally). Not
// gated on Measuring: failovers are operational signals.
func (c *Collector) RecordRoundAdopted() {
	c.RoundsAdopted++
}

// RecordRoundAborted records a coordinator failover that released the
// round without effects (its state install never arrived). Not gated on
// Measuring: failovers are operational signals.
func (c *Collector) RecordRoundAborted() {
	c.RoundsAborted++
}

// RecordAnalysisCache records one class registration's artifact-cache
// outcome. Not gated on Measuring: cache behavior is an operational
// signal, not a workload measurement.
func (c *Collector) RecordAnalysisCache(hit bool) {
	if hit {
		c.AnalysisCacheHits++
	} else {
		c.AnalysisCacheMisses++
	}
}

// RecordSolverWarm records one warm-started negotiation solve: started
// reports whether the fast path held, fellBack whether it conflicted
// into the full solve. Not gated on Measuring: solver behavior is an
// operational signal.
func (c *Collector) RecordSolverWarm(started, fellBack bool) {
	if started {
		c.SolverWarmStarts++
	}
	if fellBack {
		c.SolverFallbacks++
	}
}

// RecordCoWinner records a transaction committed by joining another
// violator's cleanup round instead of running its own.
func (c *Collector) RecordCoWinner() {
	if !c.Measuring {
		return
	}
	c.CoWinnerCommits++
}

// Throughput returns committed transactions per second of virtual time in
// the measuring window.
func (c *Collector) Throughput() float64 {
	window := rt.Duration(c.End - c.Start)
	if window <= 0 {
		return 0
	}
	return float64(c.Committed) / window.Seconds()
}

// ThroughputAt returns committed transactions per second over the window
// [Start, now] without mutating the collector, for read-only observers
// (e.g. a stats endpoint computing a rolling rate on a live system).
func (c *Collector) ThroughputAt(now rt.Time) float64 {
	window := rt.Duration(now - c.Start)
	if window <= 0 {
		return 0
	}
	return float64(c.Committed) / window.Seconds()
}

// SyncRatio returns the percentage of committed transactions that
// required synchronization.
func (c *Collector) SyncRatio() float64 {
	if c.Committed == 0 {
		return 0
	}
	return 100 * float64(c.Synced) / float64(c.Committed)
}
