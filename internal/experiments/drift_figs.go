package experiments

import (
	"repro/internal/homeostasis"
	"repro/internal/micro"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

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

// driftMicroFactory builds the hot-site rotation microbenchmark.
func driftMicroFactory(sc Scale) workloadFactory {
	return func(nSites int) (workload.Workload, error) {
		return micro.New(micro.Config{
			Items:  sc.Items,
			Refill: microDefaultRefill,
			NSites: nSites,
		}.Drift())
	}
}

// driftTPCCFactory builds the skewed-warehouse TPC-C workload: nearly all
// New Orders target the site's rotating home warehouse, the paper's
// global hot items are turned down to 1% so the skew under test is the
// warehouse affinity, and warehouses start restocked (StockMin 40) so
// stock units carry allocatable slack instead of pinning at the refill
// boundary.
func driftTPCCFactory(sc Scale) workloadFactory {
	return func(nSites int) (workload.Workload, error) {
		return tpcc.New(tpcc.Config{
			Warehouses:            10,
			DistrictsPerWarehouse: 10,
			StockPerWarehouse:     sc.TPCCStockPerWarehouse,
			Customers:             1000,
			NSites:                nSites,
			H:                     1,
			StockMin:              40,
			Seed:                  sc.Seed,
		}.Drift())
	}
}

// driftAllocs are the compared strategies, in report column order.
var driftAllocs = []homeostasis.Alloc{
	homeostasis.AllocEqualSplit, homeostasis.AllocModel, homeostasis.AllocAdaptive,
}

// Drift compares treaty allocation strategies under drifting skew: the
// micro hot-site rotation scenario (uniform 100ms topology) and the
// TPC-C skewed-warehouse scenario (EC2 UE/UW topology, New Order
// measurements), reporting synchronization ratio and throughput per
// replica for each strategy.
func Drift(sc Scale) (*Report, error) {
	r := &Report{ID: "Drift", Title: "Allocation strategies under drifting skew (Nr=2, batched cleanup)"}
	r.addf("%-14s %-10s %8s %8s %8s", "scenario", "metric", "equal", "model", "adaptive")
	type scenario struct {
		name    string
		factory workloadFactory
		cfg     runCfg
	}
	scenarios := []scenario{
		{
			name:    "micro-rotate",
			factory: driftMicroFactory(sc),
			cfg: runCfg{
				mode: homeostasis.ModeHomeo, nSites: microDefaultSites,
				rtt: microDefaultRTT, clients: microDefaultClients, scale: sc,
			},
		},
		{
			name:    "tpcc-wh",
			factory: driftTPCCFactory(sc),
			cfg: runCfg{
				mode: homeostasis.ModeHomeo, nSites: 2, ec2: true,
				clients: tpccDefaultClients, measureName: "NewOrder", scale: sc,
			},
		},
	}
	at, err := sweepGrid(sc, r, len(scenarios), len(driftAllocs), func(si, ai int) cell {
		cfg := scenarios[si].cfg
		cfg.alloc = driftAllocs[ai]
		return cell{cfg: cfg, factory: scenarios[si].factory}
	})
	if err != nil {
		return nil, err
	}
	for si, s := range scenarios {
		r.addf("%-14s %-10s %8.2f %8.2f %8.2f", s.name, "sync(%)",
			at(si, 0).col.SyncRatio(), at(si, 1).col.SyncRatio(), at(si, 2).col.SyncRatio())
		r.addf("%-14s %-10s %8.1f %8.1f %8.1f", s.name, "tput/rep",
			at(si, 0).throughputPerReplica(2), at(si, 1).throughputPerReplica(2),
			at(si, 2).throughputPerReplica(2))
	}
	return r, nil
}
