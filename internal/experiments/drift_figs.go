package experiments

import "repro/internal/homeostasis"

// This file is the drift sweep: a workload class the paper does not
// evaluate. Both scenarios skew per-unit demand heavily toward one site
// and then rotate the skew over time, which is the worst case for
// allocation strategies computed from a static model (or an equal split):
// the hot site exhausts its share of the slack while the cold sites'
// shares sit idle, so the unit renegotiates far more often than its total
// demand requires. The sweep compares equal-split, model-optimized
// (Algorithm 1 with the workload's static future model), and adaptive
// (demand-proportional, treaty.AdaptiveConfig) allocation under identical
// load; all three run with batched renegotiation so the comparison
// isolates the allocation strategy.

// The scenario knobs are the workloads' own Drift presets
// (micro.Config.Drift, tpcc.Config.Drift). The rotation period scales with
// the table size so per-item demand during one hot phase stays comparable
// across scales, and it is slow relative to a unit's negotiation rounds on
// purpose: adaptation learns from the demand observed since the last
// round, so skew that flips faster than a round completes is
// unlearnable for any allocator — the scenario probes drift the
// protocol can in principle track, with the per-item skew intense
// (narrow hot windows, high affinity) so misallocated slack actually
// costs rounds.

// driftAllocs are the compared strategies, in report column order.
var driftAllocs = []homeostasis.Alloc{
	homeostasis.AllocEqualSplit, homeostasis.AllocModel, homeostasis.AllocAdaptive,
}

// drift compares treaty allocation strategies under drifting skew: the
// micro hot-site rotation scenario (uniform 100ms topology) and the
// TPC-C skewed-warehouse scenario (EC2 UE/UW topology, New Order
// measurements), reporting synchronization ratio and throughput per
// replica for each strategy. In the TPC-C scenario nearly all New Orders
// target the site's rotating home warehouse, and the paper's global hot
// items are turned down to 1% (H = 1) so the skew under test is the
// warehouse affinity.
func drift(sc Scale, r *Report) error {
	r.addf("%-14s %-10s %8s %8s %8s", "scenario", "metric", "equal", "model", "adaptive")
	microRotate, tpccWH := microBase, tpccBase
	microRotate.drift = true
	tpccWH.drift, tpccWH.h = true, 1
	scenarios := []struct {
		name string
		base point
	}{{"micro-rotate", microRotate}, {"tpcc-wh", tpccWH}}
	res, err := sweepGrid(sc, r, len(scenarios), len(driftAllocs), func(si, ai int) point {
		p := scenarios[si].base
		p.alloc = driftAllocs[ai]
		return p
	})
	if err != nil {
		return err
	}
	for si, s := range scenarios {
		r.addf("%-14s %-10s %8.2f %8.2f %8.2f", s.name, "sync(%)",
			res(si, 0).col.SyncRatio(), res(si, 1).col.SyncRatio(), res(si, 2).col.SyncRatio())
		r.addf("%-14s %-10s %8.1f %8.1f %8.1f", s.name, "tput/rep",
			res(si, 0).perReplica(), res(si, 1).perReplica(), res(si, 2).perReplica())
	}
	return nil
}
