package main

import "repro/homeo"

// engineCounters reads the engine's counters over a measured stretch,
// summed over the clusters that make up the system under test.
type engineCounters struct {
	clusters []*homeo.Cluster
	store    homeo.StoreStats // at the start: BeginMeasure does not reset the stores
	busy     int64            // at the start
}

// beginCounters resets every cluster's measured-window statistics and
// notes the counters that do not reset.
func beginCounters(clusters ...*homeo.Cluster) engineCounters {
	e := engineCounters{clusters: clusters}
	for _, c := range clusters {
		c.BeginMeasure()
		st := c.Stats().Store
		e.store.Aborts += st.Aborts
		e.store.Deadlocks += st.Deadlocks
		e.store.Timeouts += st.Timeouts
		e.busy += c.System().BusyRetries
	}
	return e
}

// report records what the counters read now, since beginCounters.
func (e engineCounters) report(r *run) {
	var st homeo.Stats
	var negP50 []float64
	busy := -e.busy
	for _, c := range e.clusters {
		s := c.Stats()
		st.Committed += s.Committed
		st.Synced += s.Synced
		st.Negotiations += s.Negotiations
		st.ConflictAborts += s.ConflictAborts
		st.Livelocked += s.Livelocked
		st.FabricErrors += s.FabricErrors
		st.TreatyGenFailures += s.TreatyGenFailures
		st.SolverWarmStarts += s.SolverWarmStarts
		st.SolverFallbacks += s.SolverFallbacks
		st.Store.Aborts += s.Store.Aborts
		st.Store.Deadlocks += s.Store.Deadlocks
		st.Store.Timeouts += s.Store.Timeouts
		if s.Negotiations > 0 {
			negP50 = append(negP50, float64(s.NegotiationP50)/1e6)
		}
		busy += c.System().BusyRetries
	}
	count := func(name string, v int64) { r.layer[name] = reading{float64(v), 1} }
	r.layer["homeostasis.sync_ratio_pct"] = reading{100 * float64(st.Synced) / float64(max(st.Committed, 1)), int(st.Committed)}
	count("homeostasis.rounds", st.Negotiations)
	count("homeostasis.conflict_aborts", st.ConflictAborts)
	count("homeostasis.busy_retries", busy)
	count("homeostasis.livelocked", st.Livelocked)
	count("homeostasis.fabric_errors", st.FabricErrors)
	count("homeostasis.gen_failures", st.TreatyGenFailures)
	count("treaty.solver_warm_starts", st.SolverWarmStarts)
	count("treaty.solver_fallbacks", st.SolverFallbacks)
	count("store.aborts", st.Store.Aborts-e.store.Aborts)
	count("store.deadlocks", st.Store.Deadlocks-e.store.Deadlocks)
	count("store.timeouts", st.Store.Timeouts-e.store.Timeouts)
	// On the simulator this is virtual time: what the simulated topology
	// charged for the two message rounds, not a wall-clock cost.
	if len(negP50) > 0 {
		r.layer["homeostasis.neg_comm_p50_ms"] = reading{median(negP50), int(st.Negotiations)}
	}
}
