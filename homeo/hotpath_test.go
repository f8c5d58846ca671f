package homeo_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/homeo"
	"repro/internal/fabric/fabrictest"
	"repro/internal/lia"
	"repro/internal/rt"
)

// The allocation budgets (docs/ARCHITECTURE.md, "The round budget", "The
// recovery budget" and "The registration budget"), as ceilings: what the
// benchmarks of hotpath_bench_test.go, recover_bench_test.go and
// registerpath_bench_test.go measure, CI's gates hold within 20 % of the
// recorded counts, and these tests hold absolutely, on every run of the
// suite. They are skipped under the race
// detector, which makes sync.Pool drop items at random.
//
// A test measures many windows (a run of Submits, one round, one
// Recover), each between two runtime.ReadMemStats, quiesced, and judges
// within99 of them, not the worst. The malloc counter is the process's:
// it also sees what the runtime allocates behind the test's back, and a
// budget that one such window in hundreds breaks is a budget nobody can
// hold. TestRoundAllocs judges a round by its worst window: its budget is
// zero.

// mallocs returns the process's running count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quiesce makes allocation counts repeatable until the test ends, as
// testing.AllocsPerRun does around its own loop: the collector is parked,
// so no window pays for a cycle's bookkeeping, and the process runs on one
// P, so a goroutine that finished on one P is not missing from the free
// list of the P that starts the next (the runtime then allocates a fresh
// g and sudog for it: two objects per simulator process that are not the
// engine's, for hundreds of Submits in a row).
func quiesce(tb testing.TB) {
	gc, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
	tb.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// within99 returns the smallest count that at least 99 % of the windows
// stay at or under: the worst window once the top 1 % (rounded down) are
// set aside. Zero for no windows.
func within99(windows []uint64) uint64 {
	if len(windows) == 0 {
		return 0
	}
	sorted := slices.Clone(windows)
	slices.Sort(sorted)
	return sorted[len(sorted)-1-len(sorted)/100]
}

// TestWithin99: one stray window in three hundred does not move the
// statistic the budgets are judged by; a cost paid by more than one
// window in a hundred does; and a short series is judged by its worst.
func TestWithin99(t *testing.T) {
	series := func(n int, base uint64, outliers int, high uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = base
		}
		for i := 0; i < outliers; i++ {
			out[(i*37+11)%n] = high
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		windows []uint64
		want    uint64
	}{
		{"no windows", nil, 0},
		{"one outlier in 300", series(300, 0, 1, 2), 0},
		{"three outliers in 300", series(300, 14, 3, 40), 14},
		{"four outliers in 300", series(300, 14, 4, 40), 40},
		{"a short series is judged by its worst", series(5, 1, 1, 3), 3},
	} {
		if got := within99(tc.windows); got != tc.want {
			t.Errorf("%s: within99 = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSubmitSimAllocs: a Session.Submit on the simulator allocates at
// most 1 object outside the treaty-checked exec (which allocates none): it
// reads 0 — the submission's copy of its arguments is pooled with it — and
// the one is to spare.
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
		// Submit returns when its simulator process reports done, which is
		// just before that goroutine exits: let it, so that the runtime has
		// its g back before the next Submit starts one.
		runtime.Gosched()
	}
	for i := 0; i < 64; i++ { // warm the pools
		submit()
	}
	quiesce(t)
	// The budget is amortized (the commit log grows by doubling), so a
	// window is a run of Submits.
	const perWindow = 50
	windows := make([]uint64, 100)
	for i := range windows {
		before := mallocs()
		for j := 0; j < perWindow; j++ {
			submit()
		}
		windows[i] = mallocs() - before
	}
	if n := within99(windows); n > perWindow {
		t.Errorf("Session.Submit allocates %.2f objects on the simulator, budget 1", float64(n)/perWindow)
	}
}

// TestRoundAllocs: a steady-state synchronization round on the simulator
// — the deriver's memo hits, which is every round once a cluster has seen
// its stock levels — allocates nothing, in the worst of its windows: a
// plain round, and a round in the boundary region where the unit pins
// (its installed treaty holds the stock where it is: an equality). A
// purchase that pays no round allocates nothing either (within99). Rounds
// that solve cold are not steady state and are left out.
func TestRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	eng, sys, reg, c := roundSystem(t)
	d := newRoundDriver(t, sys, reg, c)
	var execErr error
	eng.Spawn(0, func(p rt.Proc) {
		if execErr = d.warm(p); execErr != nil {
			return
		}
		quiesce(t)
		var plain, pinning, local []uint64
		for len(plain) < 300 || len(pinning) < 30 {
			solves := sys.SolverInvocations()
			before := mallocs()
			synced, err := d.next(p)
			n := mallocs() - before
			if err != nil {
				execErr = err
				return
			}
			switch {
			case !synced:
				local = append(local, n)
			case sys.SolverInvocations() != solves: // a cold stock level: not steady state
			case sys.UnitLocals(c.Unit())[0].Constraints[0].Op == lia.EQ:
				pinning = append(pinning, n)
			default:
				plain = append(plain, n)
			}
		}
		if n := slices.Max(plain); n > 0 {
			t.Errorf("a steady-state round allocates up to %d objects, want 0", n)
		}
		if n := slices.Max(pinning); n > 0 {
			t.Errorf("a steady-state round that pins allocates up to %d objects, want 0", n)
		}
		if n := within99(local); n > 0 {
			t.Errorf("a purchase that pays no round allocates %d objects, want 0", n)
		}
		t.Logf("%d steady-state rounds, %d of them pinning: worst %d and %d allocations; %d local purchases: worst %d",
			len(plain)+len(pinning), len(pinning), slices.Max(plain), slices.Max(pinning), len(local), slices.Max(local))
	})
	eng.Run()
	if execErr != nil {
		t.Fatal(execErr)
	}
}

// TestPeerRoundAllocs: the three messages of a round over fabric.HTTP,
// between two stub sites over a real loopback socket (the round
// BenchmarkNegotiationRoundTrip measures), allocate at most 310 objects:
// 290 measured, 404 at the parent of the change that set the budget. What
// is left is net/http's own cost of three POSTs served and answered, the
// stubs, and what the coordinator and the site keep of the messages
// (docs/ARCHITECTURE.md, "The round budget", has the table).
func TestPeerRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	l := fabrictest.NewLoopback(t)
	windows := make([]uint64, 0, 300)
	var roundErr error
	done := make(chan struct{})
	l.Live.Spawn(0, func(p rt.Proc) {
		defer close(done)
		for i := 0; i < 64 && roundErr == nil; i++ { // warm the pools and the connection
			roundErr = l.Round(p)
		}
		quiesce(t)
		for len(windows) < cap(windows) && roundErr == nil {
			before := mallocs()
			roundErr = l.Round(p)
			windows = append(windows, mallocs()-before)
		}
	})
	<-done
	l.Live.Drain()
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	t.Logf("300 rounds over loopback HTTP: within99 %d allocations, worst %d", within99(windows), slices.Max(windows))
	if n := within99(windows); n > 310 {
		t.Errorf("a round over loopback HTTP allocates %d objects, budget 310", n)
	}
}

// TestRecoverAllocs: recovering a log of 20 000 commits and the rounds
// they paid allocates at most 2 objects per commit record. What recovery
// does allocate is per log or per chunk — the file buffer, the record
// slice, the commit-log runs and their merge, the slabs — plus the treaty
// generations that survive the version guard.
func TestRecoverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	const commits = 20000
	boot := recoveryImage(t, commits)
	quiesce(t)
	windows := make([]uint64, 3)
	for i := range windows {
		c := boot()
		before := mallocs()
		n, err := c.Recover()
		windows[i] = mallocs() - before
		if err != nil || n < commits || c.Committed() != commits {
			t.Fatalf("Recover = (%d, %v) with %d commits in the log, want all %d", n, err, c.Committed(), commits)
		}
		c.Close()
	}
	perCommit := float64(within99(windows)) / commits
	t.Logf("recovery allocates %.4f objects per commit record", perCommit)
	if perCommit > 2 {
		t.Errorf("recovery allocates %.2f objects per commit record, budget 2", perCommit)
	}
}

// registerWindows registers the ledger's Reg<i> classes of the shapes
// given, in runs of perWindow, and returns what each run allocated. The
// budget is amortized — a registration grows the registry's and the
// stores' maps, which double now and then — so a window is a run.
func registerWindows(t *testing.T, windows, perWindow int, shape func(i int) int64) []uint64 {
	c := registerCluster(t)
	specs := make([]homeo.ClassSpec, windows*perWindow)
	for i := range specs {
		specs[i] = harnessRegSpec(64+i, shape(64+i))
	}
	quiesce(t)
	out := make([]uint64, windows)
	for w := range out {
		before := mallocs()
		for _, spec := range specs[w*perWindow : (w+1)*perWindow] {
			if _, err := c.Register(spec); err != nil {
				t.Fatal(err)
			}
		}
		out[w] = mallocs() - before
	}
	return out
}

// TestRegisterHitAllocs: registering a class of a shape the cluster has
// analysed — parse, family lookup, a member sized once, the locals the
// sites keep — allocates at most 55 objects (docs/ARCHITECTURE.md, "The
// registration budget": 43 measured, 99 at the parent of the change that
// set the budget).
func TestRegisterHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	const perWindow = 20
	windows := registerWindows(t, 100, perWindow, func(int) int64 { return 0 })
	perOp := float64(within99(windows)) / perWindow
	t.Logf("a registration that hits the analysis cache allocates %.1f objects", perOp)
	if perOp > 55 {
		t.Errorf("a registration that hits the analysis cache allocates %.1f objects, budget 55", perOp)
	}
}

// TestRegisterMissAllocs: registering a class of a shape of its own — the
// whole analysis, two replica rewrites and their simplification, a
// symbolic table, a solve — allocates at most 480 objects (400 measured,
// 427 in the worst run of ten, 592 at the parent).
func TestRegisterMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	const perWindow = 10
	windows := registerWindows(t, 50, perWindow, func(i int) int64 { return novelRegShape + int64(i) })
	perOp := float64(within99(windows)) / perWindow
	t.Logf("a registration that misses the analysis cache allocates %.1f objects", perOp)
	if perOp > 480 {
		t.Errorf("a registration that misses the analysis cache allocates %.1f objects, budget 480", perOp)
	}
}
