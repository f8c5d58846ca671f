package homeostasis

import (
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/topk"
)

// TestTopKEndToEnd runs the Section 1 motivating workload under the
// protocol: silent inserts (below the cached minimum) commit locally,
// list-changing inserts synchronize, and the final list equals the true
// top-2 of everything inserted (checked by replaying the commit log).
func TestTopKEndToEnd(t *testing.T) {
	w, err := topk.New(topk.Config{
		NSites: 3, MaxValue: 5000, InitialTop1: 100, InitialTop2: 91,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(5)
	opts := baseOpts(ModeHomeo, 3)
	opts.Measure = 5 * sim.Second
	sys, err := New(e, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if sys.Col.Committed < 100 {
		t.Fatalf("committed = %d", sys.Col.Committed)
	}
	// Most inserts are silent: with values uniform in [1, 5000] and the
	// minimum ratcheting upward, the sync ratio must fall well below 50%.
	if r := sys.Col.SyncRatio(); r > 50 {
		t.Fatalf("sync ratio = %.1f%%, expected mostly silent inserts", r)
	}
	if sys.Col.Synced == 0 {
		t.Fatal("no insert ever updated the list")
	}

	// True top-2 of the initial list plus every committed insert.
	vals := []int64{100, 91}
	for _, c := range logEntries(&sys.CommitLog) {
		vals = append(vals, c.Args[0])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	final := finalFolded(sys)
	if final.Get(topk.Top1) != vals[0] || final.Get(topk.Top2) != vals[1] {
		t.Fatalf("final list (%d, %d) != true top-2 (%d, %d) of %d inserts",
			final.Get(topk.Top1), final.Get(topk.Top2), vals[0], vals[1], len(vals)-2)
	}
	// All replicas agree on the list.
	for s := 1; s < 3; s++ {
		if sys.Stores[s].Get(topk.Top1) != sys.Stores[0].Get(topk.Top1) ||
			sys.Stores[s].Get(topk.Top2) != sys.Stores[0].Get(topk.Top2) {
			t.Fatalf("replica %d diverged on the top-2 list", s)
		}
	}
}
