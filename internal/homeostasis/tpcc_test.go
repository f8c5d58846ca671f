package homeostasis

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/lang"
	"repro/internal/sim"
	"repro/internal/tpcc"
)

func tpccWorkload(t *testing.T, nSites int, h float64) *tpcc.Workload {
	t.Helper()
	w, err := tpcc.New(tpcc.Config{
		Warehouses:            2,
		DistrictsPerWarehouse: 2,
		StockPerWarehouse:     25,
		Customers:             50,
		NSites:                nSites,
		H:                     h,
		Seed:                  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTPCCEndToEnd: the full TPC-C mix runs under the homeostasis
// protocol; the final consolidated state (stock, order queues, and
// balances) matches a serial replay of the commit log, i.e. Theorem 3.8
// holds on the realistic workload.
func TestTPCCEndToEnd(t *testing.T) {
	w := tpccWorkload(t, 2, 10)
	e := sim.NewEngine(3)
	opts := baseOpts(ModeHomeo, 2)
	opts.Seed = 3
	sys, err := New(e, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if sys.Col.Committed < 100 {
		t.Fatalf("committed = %d, too few", sys.Col.Committed)
	}

	// Serial replay.
	replay := w.InitialDB()
	for _, c := range sys.CommitLog {
		c.Apply(replay, c.Args)
	}
	// Compare every logical object that appears in either database
	// (balances included: they are replicated via deltas even without
	// treaty units).
	objs := map[lang.ObjID]bool{}
	for obj := range replay {
		objs[obj] = true
	}
	for obj := range sys.Stores[0].Snapshot() {
		if _, _, isDelta := lang.IsDeltaObj(obj); !isDelta {
			objs[obj] = true
		}
	}
	// Deltas live only on their owning site; fold base + each site's own
	// delta to get the logical value.
	const nSites = 2
	for obj := range objs {
		v := sys.Stores[0].Get(obj)
		for k := 0; k < nSites; k++ {
			v += sys.Stores[k].Get(lang.DeltaObj(obj, k))
		}
		if replay.Get(obj) != v {
			t.Fatalf("object %s: protocol %d, serial replay %d", obj, v, replay.Get(obj))
		}
	}
}

// TestTPCCPaymentNeverSyncs and Delivery always does — the Appendix E
// behavior.
func TestTPCCSyncBehaviorByTransaction(t *testing.T) {
	// Payment-only run: zero synchronizations.
	wPay, err := tpcc.New(tpcc.Config{
		Warehouses: 2, DistrictsPerWarehouse: 2, StockPerWarehouse: 25,
		Customers: 50, NSites: 2, Seed: 5,
		MixNewOrder: 0, MixPayment: 100, MixDelivery: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(4)
	sys, err := New(e, wPay, baseOpts(ModeHomeo, 2))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if sys.Col.Committed == 0 {
		t.Fatal("no payments committed")
	}
	if sys.Col.Synced != 0 {
		t.Fatalf("Payment caused %d synchronizations, want 0", sys.Col.Synced)
	}
	// Payments commit at local latency.
	if max := sys.Col.Latency.Max(); max > 50*sim.Millisecond {
		t.Fatalf("payment max latency = %v, want local", max)
	}

	// New Order + Delivery run: every productive Delivery synchronizes.
	wDel, err := tpcc.New(tpcc.Config{
		Warehouses: 1, DistrictsPerWarehouse: 1, StockPerWarehouse: 25,
		Customers: 50, NSites: 2, Seed: 5,
		MixNewOrder: 50, MixPayment: 0, MixDelivery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	e2 := sim.NewEngine(4)
	opts := baseOpts(ModeHomeo, 2)
	opts.EnableLog = true
	sys2, err := New(e2, wDel, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys2.Run()
	productive := 0
	for _, c := range sys2.CommitLog {
		if c.Name == "Delivery" && len(c.Log) > 0 {
			productive++
		}
	}
	if productive == 0 {
		t.Fatal("no productive deliveries")
	}
	if sys2.Col.Synced == 0 {
		t.Fatal("deliveries did not synchronize")
	}
}

// TestTPCCSkewIncreasesSyncs reproduces the Figure 19/20 mechanism: a
// more skewed workload violates the hot items' treaties more often.
func TestTPCCSkewIncreasesSyncs(t *testing.T) {
	ratioAt := func(h float64) float64 {
		w := tpccWorkload(t, 2, h)
		e := sim.NewEngine(9)
		opts := baseOpts(ModeHomeo, 2)
		opts.MeasureName = "NewOrder"
		opts.EnableLog = false
		opts.Measure = 5 * sim.Second
		sys, err := New(e, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if sys.Col.Committed == 0 {
			t.Fatal("no commits")
		}
		return sys.Col.SyncRatio()
	}
	low := ratioAt(1)
	high := ratioAt(50)
	if high <= low {
		t.Fatalf("sync ratio should grow with skew: H=1 -> %.2f%%, H=50 -> %.2f%%", low, high)
	}
}

// TestTPCCOnEC2Topology: the Table 1 WAN topology works end to end.
func TestTPCCOnEC2Topology(t *testing.T) {
	w := tpccWorkload(t, 3, 10)
	e := sim.NewEngine(6)
	opts := baseOpts(ModeHomeo, 3)
	opts.Topo = cluster.EC2(3) // UE, UW, IE
	opts.Measure = 3 * sim.Second
	sys, err := New(e, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if sys.Col.Committed == 0 {
		t.Fatal("no commits on EC2 topology")
	}
	// Negotiation latency reflects the worst RTT from the coordinator
	// (UE<->IE is 80ms; UW<->IE 170ms).
	if max := sys.Col.Latency.Max(); max < 150*sim.Millisecond {
		t.Fatalf("max latency %v too small for WAN negotiation", max)
	}
}
