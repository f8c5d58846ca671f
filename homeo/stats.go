package homeo

import (
	"time"

	"repro/internal/homeostasis"
)

// StoreStats aggregates a 2PL store's counters: Commits, Aborts,
// Deadlocks and Timeouts.
type StoreStats = homeostasis.StoreStats

// Stats is a point-in-time snapshot of the cluster's measurements: the
// same collector the paper's experiments report from, plus per-site store
// counters.
type Stats struct {
	Workload string
	Mode     string
	Alloc    string
	Runtime  string
	Sites    int
	Classes  []string
	// Uptime is wall-clock time since New.
	Uptime time.Duration

	Committed         int64
	Synced            int64
	ConflictAborts    int64
	Dropped           int64
	Livelocked        int64
	TreatyGenFailures int64
	CoWinnerCommits   int64

	// SyncRatioPct is the percentage of commits that required a
	// synchronization round.
	SyncRatioPct float64
	// Throughput is committed transactions per second of runtime time
	// over the current measurement window.
	Throughput float64

	LatencyP50  time.Duration
	LatencyP90  time.Duration
	LatencyP99  time.Duration
	LatencyMax  time.Duration
	LatencyMean time.Duration

	// Negotiations counts the cleanup rounds this process coordinated in
	// the measurement window; NegotiationP50/P99 are percentiles of their
	// communication cost (the two peer message rounds). FabricErrors
	// counts site-fabric degradations (failed peer installs, expired
	// round grants).
	Negotiations   int64
	NegotiationP50 time.Duration
	NegotiationP99 time.Duration
	FabricErrors   int64

	// RoundsAdopted and RoundsAborted count coordinator-failover outcomes:
	// synchronization rounds whose coordinator died mid-round and whose
	// grant this process resolved by adopting the decided winner or by
	// aborting the round. RecoveredWALRecords is the number of
	// write-ahead-log records replayed by Recover at boot.
	RoundsAdopted       int64
	RoundsAborted       int64
	RecoveredWALRecords int64

	// AnalysisCacheHits and AnalysisCacheMisses count class registrations
	// that reused a cached analysis (symbolic table and guard
	// preprocessing from an isomorphic class) versus built one from
	// scratch. SolverWarmStarts and SolverFallbacks count treaty
	// negotiations that succeeded from the previous configuration versus
	// fell back to a full solve.
	AnalysisCacheHits   int64
	AnalysisCacheMisses int64
	SolverWarmStarts    int64
	SolverFallbacks     int64

	// Store aggregates the per-site counters; PerSite lists them.
	Store   StoreStats
	PerSite []StoreStats

	// TopologyEpoch is this process's membership epoch: bumped on every
	// join admission and drain completion it observes. Clients use a bump
	// as a cue to refresh their site list. ActiveSites counts membership
	// slots accepting submissions; SiteStatus lists every slot's status
	// ("active", "draining", "gone") indexed by site, and SiteAddrs the
	// known peer base URLs ("" in-process).
	TopologyEpoch int64
	ActiveSites   int
	SiteStatus    []string
	SiteAddrs     []string
}

// Stats snapshots the cluster's measurements. It is strictly read-only —
// safe to call repeatedly on a serving cluster.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Workload: c.reg.Name(),
		Mode:     c.opts.Mode.String(),
		Alloc:    c.opts.Alloc.String(),
		Runtime:  c.opts.Runtime.String(),
		Classes:  c.Classes(),
		Uptime:   wallClock().Sub(c.start),
	}
	c.locked(func() {
		st.Sites = c.sys.NSites()
		st.TopologyEpoch = c.sys.Epoch()
		st.ActiveSites = c.sys.ActiveSites()
		st.SiteStatus = make([]string, st.Sites)
		for k := 0; k < st.Sites; k++ {
			st.SiteStatus[k] = c.sys.SiteStatusName(k)
		}
		st.SiteAddrs = c.sys.SiteAddrs()
		// Read under the execution right this closure already holds: the
		// percentiles re-sort the histograms' shared scratch. Nothing below
		// changes a counter or the measurement window.
		col := c.sys.Col
		st.Committed = col.Committed
		st.Synced = col.Synced
		st.ConflictAborts = col.AbortedConflicts
		st.Dropped = col.Dropped
		st.Livelocked = col.Livelocked
		st.TreatyGenFailures = col.TreatyGenFailures
		st.CoWinnerCommits = col.CoWinnerCommits
		st.SyncRatioPct = col.SyncRatio()
		st.Throughput = col.ThroughputAt(c.eng.Now())
		if col.End > col.Start {
			// A closed measurement window (after Drive): report its rate
			// instead of a rolling one that decays with wall time.
			st.Throughput = col.Throughput()
		}
		st.LatencyP50 = time.Duration(col.Latency.Percentile(50))
		st.LatencyP90 = time.Duration(col.Latency.Percentile(90))
		st.LatencyP99 = time.Duration(col.Latency.Percentile(99))
		st.LatencyMax = time.Duration(col.Latency.Max())
		st.LatencyMean = time.Duration(col.Latency.Mean())
		st.Negotiations = int64(col.NegotiationLatency.N())
		st.NegotiationP50 = time.Duration(col.NegotiationLatency.Percentile(50))
		st.NegotiationP99 = time.Duration(col.NegotiationLatency.Percentile(99))
		st.FabricErrors = col.FabricErrors
		st.RoundsAdopted = col.RoundsAdopted
		st.RoundsAborted = col.RoundsAborted
		st.RecoveredWALRecords = c.sys.RecoveredRecords
		st.AnalysisCacheHits = col.AnalysisCacheHits
		st.AnalysisCacheMisses = col.AnalysisCacheMisses
		st.SolverWarmStarts = col.SolverWarmStarts
		st.SolverFallbacks = col.SolverFallbacks
		st.Store = c.sys.StoreStats()
		st.PerSite = c.sys.SiteStats()
	})
	return st
}
