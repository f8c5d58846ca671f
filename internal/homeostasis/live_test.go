package homeostasis

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/tpcc"
)

// liveOpts is a short real-time configuration: small enough for 1-core CI
// runners, long enough to commit a meaningful batch and trigger some
// negotiations (tight refill → frequent treaty violations).
func liveOpts(mode Mode, nSites int) Options {
	return Options{
		Mode:           mode,
		Topo:           cluster.Uniform(nSites, 20*rt.Millisecond),
		ClientsPerSite: 3,
		CPUPerSite:     2,
		LocalExecTime:  rt.Millisecond,
		LockTimeout:    100 * rt.Millisecond,
		Warmup:         50 * rt.Millisecond,
		Measure:        400 * rt.Millisecond,
		Seed:           42,
		EnableLog:      true,
	}
}

// TestLiveReplayEquivalence runs the protocol on the wall-clock runtime
// (real goroutines, real lock waits, real RTTs) and checks the paper's
// Theorem 3.8 property on what actually happened: the recorded commit log,
// replayed serially via Apply on the initial database, must reproduce the
// final consolidated state. This is the live-runtime counterpart of
// TestTheorem38SerialEquivalence.
func TestLiveReplayEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeHomeo, ModeOpt} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			w := microWorkload(t, 8, 2, 25)
			live := rtlive.New(42)
			sys, err := New(live, w, liveOpts(mode, 2))
			if err != nil {
				t.Fatal(err)
			}
			col := sys.Run()
			if sys.CommitLog.Len() == 0 {
				t.Fatal("live run committed nothing")
			}
			if err := sys.CheckReplayEquivalence(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s live: %d commits, %.1f%% synced, %d dropped, store: %s",
				mode, col.Committed, col.SyncRatio(), col.Dropped, sys.StoreStats())
		})
	}
}

// TestLiveTPCC drives the TPC-C workload on the live runtime end to end:
// nonzero commits, clean drain, replay equivalence — the same properties
// cmd/homeostasis-serve's -drive path asserts in CI.
func TestLiveTPCC(t *testing.T) {
	w, err := tpcc.New(tpcc.Config{
		Warehouses:            2,
		DistrictsPerWarehouse: 2,
		StockPerWarehouse:     20,
		Customers:             50,
		NSites:                2,
		Seed:                  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	live := rtlive.New(7)
	sys, err := New(live, w, liveOpts(ModeHomeo, 2))
	if err != nil {
		t.Fatal(err)
	}
	col := sys.Run()
	if sys.CommitLog.Len() == 0 {
		t.Fatal("live TPC-C run committed nothing")
	}
	_ = col
	if live.Live() != 0 {
		t.Fatalf("%d processes alive after Run (drain leak)", live.Live())
	}
	if err := sys.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
}
