package homeostasis_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/homeostasis"
	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/rtlive"
)

// TestMultiProcessFabric runs a 2-site cluster as two fully separate
// Systems — separate wall-clock runtimes, separate stores, identical
// construction — connected only by the HTTP site fabric, the same shape
// as two OS processes. Both sites drive contended micro traffic so
// violations negotiate across the wire in both directions (the
// coordinator role rotates to the violating site), then the test checks:
//
//   - both sites synced at least once (rounds actually crossed the wire),
//   - a winnerless round over one unit coordinated by site 0 and then the
//     drain of site 1, coordinated by site 1, complete: winnerless rounds
//     cross the wire in both directions too,
//   - the per-site partitions fold to a consistent database,
//   - the merged commit log (Lamport order) replays to that database —
//     the multi-process form of Theorem 3.8.
func TestMultiProcessFabric(t *testing.T) {
	const nSites = 2
	topo := cluster.Uniform(nSites, 2*rt.Millisecond)
	mkSys := func(self int, live *rtlive.Runtime) *homeostasis.System {
		w, err := micro.New(micro.Config{Items: 8, Refill: 40, NSites: nSites})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := homeostasis.New(live, w, homeostasis.Options{
			Mode:          homeostasis.ModeOpt, // equal split: violations come quickly
			Topo:          topo,
			CPUPerSite:    4,
			LocalExecTime: 200 * rt.Microsecond,
			Seed:          1,
			EnableLog:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The test drives ExecRequest directly (no Run/warm-up), so flip
		// the collector on by hand.
		sys.Col.Measuring = true
		return sys
	}

	lives := make([]*rtlive.Runtime, nSites)
	systems := make([]*homeostasis.System, nSites)
	for k := 0; k < nSites; k++ {
		lives[k] = rtlive.New(int64(k + 1))
		systems[k] = mkSys(k, lives[k])
	}

	// Wire the fabric: each system's node served over a real HTTP server,
	// handlers entering the owning runtime's execution right via Locked.
	peers := make([]string, nSites)
	for k := 0; k < nSites; k++ {
		k := k
		srv := httptest.NewServer(fabric.NewPeerHandler(systems[k].Node(k), lives[k].Locked, ""))
		t.Cleanup(srv.Close)
		peers[k] = srv.URL
	}
	for k := 0; k < nSites; k++ {
		systems[k].SetFabric(fabric.NewHTTP(lives[k], k, peers, systems[k].Node(k), nil), k)
	}

	// Drive both sites concurrently: a few clients each, enough requests
	// on a tiny hot table to force cross-site negotiation rounds.
	const clients, txns = 3, 120
	var wg sync.WaitGroup
	for k := 0; k < nSites; k++ {
		k := k
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			lives[k].Spawn(k*clients+c, func(p rt.Proc) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000*k + c)))
				for i := 0; i < txns; i++ {
					req := systems[k].W.Next(rng, k)
					if _, err := systems[k].ExecRequest(p, k, req); err != nil {
						t.Errorf("site %d: %v", k, err)
						return
					}
				}
			})
		}
	}
	wg.Wait()

	// Winnerless rounds over the same wire: site 0 folds one unit the way a
	// drain absorbs it, then site 1 retires, absorbing every unit's deltas
	// into the base.
	runOn := func(k int, what string, fn func(p rt.Proc) error) {
		t.Helper()
		done := make(chan error, 1)
		lives[k].Spawn(nSites*clients+k, func(p rt.Proc) { done <- fn(p) })
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	runOn(0, "winnerless round over unit 0", func(p rt.Proc) error { return systems[0].WinnerlessRound(p, 0, 0) })
	runOn(1, "drain site 1", func(p rt.Proc) error { return systems[1].Drain(p, 1) })
	for k := 0; k < nSites; k++ {
		if got := systems[k].SiteStatusName(1); got != "gone" {
			t.Errorf("site %d sees site 1 as %q after its drain, want gone", k, got)
		}
		lives[k].Drain()
	}

	synced := 0
	for k := 0; k < nSites; k++ {
		if n := systems[k].Col.NegotiationLatency.N(); n > 0 {
			synced++
			t.Logf("site %d coordinated %d rounds (p50 %v)", k, n,
				systems[k].Col.NegotiationLatency.Percentile(50))
		}
		if systems[k].Col.FabricErrors != 0 {
			t.Errorf("site %d recorded %d fabric errors", k, systems[k].Col.FabricErrors)
		}
	}
	if synced == 0 {
		t.Fatal("no site ever coordinated a negotiation round; the fabric was never exercised")
	}

	// Fold the final database from the per-site partitions — each System
	// only contributes what its own process authoritatively owns.
	parts := make([]lang.Database, nSites)
	for k := 0; k < nSites; k++ {
		parts[k] = systems[k].PartitionDB(k)
	}
	folded := lang.Database{}
	for _, obj := range systems[0].AllUnitObjects() {
		base := parts[0].Get(obj)
		v := base
		for k := 0; k < nSites; k++ {
			if b := parts[k].Get(obj); b != base {
				t.Fatalf("base %s diverged: site 0 has %d, site %d has %d", obj, base, k, b)
			}
			v += parts[k].Get(lang.DeltaObj(obj, k))
		}
		folded[obj] = v
	}

	// Merge the two commit logs by (Lamport clock, site, local order) and
	// replay serially against the initial database.
	type entry struct {
		clock int64
		site  int
		seq   int
		c     homeostasis.Committed
	}
	var merged []entry
	total := 0
	for k := 0; k < nSites; k++ {
		for i, c := range systems[k].CommitLog {
			merged = append(merged, entry{clock: c.Clock, site: c.Site, seq: i, c: c})
		}
		total += len(systems[k].CommitLog)
	}
	if total == 0 {
		t.Fatal("empty merged commit log")
	}
	sort.SliceStable(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.clock != b.clock {
			return a.clock < b.clock
		}
		if a.site != b.site {
			return a.site < b.site
		}
		return a.seq < b.seq
	})
	replay := systems[0].W.InitialDB()
	for _, e := range merged {
		e.c.Apply(replay, e.c.Args)
	}
	for obj, want := range folded {
		if got := replay.Get(obj); got != want {
			t.Errorf("replay mismatch on %s: cluster %d, serial replay %d (%d commits)", obj, want, got, total)
			for k := 0; k < nSites; k++ {
				t.Logf("  site %d: base=%d own-delta=%d", k, parts[k].Get(obj), parts[k].Get(lang.DeltaObj(obj, k)))
			}
			var unit int
			fmt.Sscanf(string(obj), "stock[%d]", &unit)
			for k := 0; k < nSites; k++ {
				for i, c := range systems[k].CommitLog {
					if len(c.Units) == 1 && c.Units[0] == unit {
						t.Logf("  site %d seq %d clock %d %s%v", k, i, c.Clock, c.Name, c.Args)
					}
				}
			}
		}
	}
	t.Logf("merged %d commits from %d processes; folded database consistent", total, nSites)
}
