package homeo_test

import (
	"context"
	"runtime"
	"testing"

	"repro/homeo"
	"repro/internal/rt"
)

// The engine core's allocation budget (docs/ARCHITECTURE.md, "The round
// budget"), as ceilings: what the benchmarks of hotpath_bench_test.go
// measure, CI's gates hold within 20 % of the recorded counts, and these
// tests hold absolutely, on every run of the suite. They are skipped under
// the race detector, which makes sync.Pool drop items at random.

// TestSubmitSimAllocs: a Session.Submit on the simulator allocates at
// most 2 objects outside the treaty-checked exec (which allocates none):
// the request's copy of its arguments, and one to spare.
func TestSubmitSimAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cls, err := c.Register(homeo.ClassSpec{
		L:       benchDepositSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"acct": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, ctx := c.Session(), context.Background()
	submit := func() {
		if res, err := sess.Submit(ctx, cls, 1); err != nil || !res.Committed {
			t.Fatalf("submit: %+v, %v", res, err)
		}
	}
	for i := 0; i < 64; i++ { // warm the pools
		submit()
	}
	if n := testing.AllocsPerRun(500, submit); n > 2 {
		t.Errorf("Session.Submit allocates %.1f objects on the simulator, budget 2", n)
	}
}

// TestRoundAllocs: a steady-state synchronization round on the simulator
// — configuration and locals caches hit, which is every round once a
// cluster has seen its stock levels — allocates at most 30 objects, and a
// purchase that pays no round allocates none.
func TestRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	eng, sys, reg, c := roundSystem(t)
	d := newRoundDriver(t, sys, reg, c)
	var execErr error
	eng.Spawn(0, func(p rt.Proc) {
		if execErr = d.warm(p, 2000); execErr != nil {
			return
		}
		var ms runtime.MemStats
		worst, local := uint64(0), uint64(0)
		for rounds := 0; rounds < 300; {
			solves := sys.SolverInvocations
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			synced, err := d.next(p)
			runtime.ReadMemStats(&ms)
			if err != nil {
				execErr = err
				return
			}
			n := ms.Mallocs - before
			switch {
			case !synced:
				local = max(local, n)
			case sys.SolverInvocations == solves: // else a cold stock level: not steady state
				worst = max(worst, n)
				rounds++
			}
		}
		if worst > 30 {
			t.Errorf("a steady-state round allocates up to %d objects, budget 30", worst)
		}
		if local > 0 {
			t.Errorf("a purchase that pays no round allocates up to %d objects, want 0", local)
		}
		t.Logf("worst of 300 steady-state rounds: %d allocations", worst)
	})
	eng.Run()
	if execErr != nil {
		t.Fatal(execErr)
	}
}
