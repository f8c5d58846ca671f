package homeostasis

import (
	"testing"

	"repro/internal/sim"
)

// TestIncrementalFoldMatchesScratch is the fold-cache soundness
// property: after a full randomized run — commits dirtying unit folds,
// synchronization rounds installing consolidated state — the folded
// database assembled from the per-unit caches must equal the one
// computed from scratch over the site stores. Any missed invalidation
// (a store write without a dirty mark) shows up as a divergence here.
func TestIncrementalFoldMatchesScratch(t *testing.T) {
	for _, mode := range []Mode{ModeHomeo, ModeOpt, ModeHomeoDefault} {
		for seed := int64(1); seed <= 4; seed++ {
			w := microWorkload(t, 20, 3, 50)
			opts := baseOpts(mode, 3)
			opts.Seed = seed
			e := sim.NewEngine(seed)
			sys, err := New(e, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			sys.Run()
			if sys.Col.Committed == 0 {
				t.Fatalf("%v seed %d: no commits, nothing exercised", mode, seed)
			}
			cached := sys.FoldedDB()
			// Recompute every unit's fold from the stores alone.
			sys.invalidateFolds()
			scratch := sys.FoldedDB()
			if len(cached) != len(scratch) {
				t.Fatalf("%v seed %d: cached fold has %d objects, scratch %d",
					mode, seed, len(cached), len(scratch))
			}
			for obj, v := range scratch {
				if got := cached.Get(obj); got != v {
					t.Fatalf("%v seed %d: object %s: cached fold %d, scratch %d",
						mode, seed, obj, got, v)
				}
			}
		}
	}
}

// TestFoldCacheDisabledForBaselines: 2PC and local baselines commit
// through a path that does not mark folds dirty, so caching must be off
// for them (foldUnit always recomputes).
func TestFoldCacheDisabledForBaselines(t *testing.T) {
	for _, mode := range []Mode{ModeTwoPC, ModeLocal} {
		w := microWorkload(t, 5, 2, 50)
		e := sim.NewEngine(3)
		sys, err := New(e, w, baseOpts(mode, 2))
		if err != nil {
			t.Fatal(err)
		}
		if sys.treaties {
			t.Fatalf("%v: a baseline that bypasses the dirty marks resolved as keeping treaties", mode)
		}
		sys.Run()
		for _, u := range sys.Units {
			if u.fold != nil {
				t.Fatalf("%v: unit %d holds a cached fold", mode, u.id)
			}
		}
	}
}
