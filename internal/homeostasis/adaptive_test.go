package homeostasis

import (
	"fmt"
	"testing"

	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/sim"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// failingGen wraps a workload so BuildGlobal succeeds during offline
// initialization and fails on every online renegotiation — the treaty-
// generation failure path of the cleanup phase.
type failingGen struct {
	workload.Workload
	calls, units int
}

func (f *failingGen) BuildGlobal(unit int, folded lang.Database) (treaty.Global, error) {
	f.calls++
	if f.calls > f.units {
		return treaty.Global{}, fmt.Errorf("injected generation failure (call %d)", f.calls)
	}
	return f.Workload.BuildGlobal(unit, folded)
}

// TestGenFailureCommitsTruthfully is the regression test for the
// cleanup-phase accounting bug: a treaty-generation error used to be
// returned after T' had been applied and logged at every site, so the
// caller recorded the request as Dropped even though it committed, and
// the touched units kept stale compiled treaties against the reset
// state. Now the commit stands (recorded, never dropped), the failure
// surfaces on a distinct counter, and the unit degrades to safe pin
// treaties, so serial-replay equivalence still holds across the
// failures.
func TestGenFailureCommitsTruthfully(t *testing.T) {
	w := microWorkload(t, 4, 2, 20)
	fw := &failingGen{Workload: w, units: w.NumUnits()}
	opts := baseOpts(ModeHomeo, 2)
	sys, _ := runSystem(t, fw, opts)
	col := sys.Col
	if col.Committed == 0 {
		t.Fatal("no commits")
	}
	if col.TreatyGenFailures == 0 {
		t.Fatal("no treaty-generation failures recorded; the injection did not fire")
	}
	if col.Dropped != 0 {
		t.Fatalf("%d requests dropped; generation failures must not drop committed requests", col.Dropped)
	}
	if col.Synced == 0 {
		t.Fatal("no synced commits recorded")
	}
	if err := sys.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence broken across generation failures: %v", err)
	}
	// The degraded units carry pin treaties: every later write violates
	// and synchronizes, so syncs stay plentiful but correctness holds.
	t.Logf("commits=%d synced=%d genFailures=%d", col.Committed, col.Synced, col.TreatyGenFailures)
}

// contendedOpts pushes many clients onto very few units so violators
// pile up behind in-flight negotiations, exercising the busy/loser
// path (serial mode) and the co-winner path (batched mode).
func contendedOpts(alloc Alloc, measure rt.Duration) Options {
	o := baseOpts(ModeHomeo, 2)
	o.Alloc = alloc
	o.ClientsPerSite = 8
	o.Measure = measure
	return o
}

// TestBusyLoserRetrySim: under AllocDefault, concurrent violators on one
// unit serialize — losers wait for the winner's round and retry. The
// counter proves the path ran; the replay check proves it stayed
// correct.
func TestBusyLoserRetrySim(t *testing.T) {
	w := microWorkload(t, 1, 2, 8) // one unit, tiny refill: constant violation pressure
	sys, _ := runSystem(t, w, contendedOpts(AllocDefault, 3*sim.Second))
	if sys.Col.Committed == 0 || sys.Col.Synced == 0 {
		t.Fatalf("committed=%d synced=%d; contention scenario produced no syncs",
			sys.Col.Committed, sys.Col.Synced)
	}
	if sys.BusyRetries == 0 {
		t.Fatal("busy/loser retry path never taken despite single-unit contention")
	}
	if sys.Col.CoWinnerCommits != 0 {
		t.Fatalf("co-winners recorded (%d) under AllocDefault; batching must be opt-in",
			sys.Col.CoWinnerCommits)
	}
	if err := sys.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
}

// TestCoWinnerBatchingSim: with the adaptive engine enabled, queued
// violators join the in-flight round as co-winners and commit in one
// fold + one treaty generation + one distribution round.
func TestCoWinnerBatchingSim(t *testing.T) {
	w := microWorkload(t, 1, 2, 8)
	sys, _ := runSystem(t, w, contendedOpts(AllocAdaptive, 3*sim.Second))
	if sys.Col.Committed == 0 || sys.Col.Synced == 0 {
		t.Fatalf("committed=%d synced=%d; contention scenario produced no syncs",
			sys.Col.Committed, sys.Col.Synced)
	}
	if sys.Col.CoWinnerCommits == 0 {
		t.Fatal("no co-winner commits despite batching and single-unit contention")
	}
	if err := sys.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
	t.Logf("synced=%d co-winners=%d busyRetries=%d",
		sys.Col.Synced, sys.Col.CoWinnerCommits, sys.BusyRetries)
}

// TestContendedViolatorsLive runs the same contention scenario on the
// wall-clock runtime, in both serial and batched cleanup modes (the
// rttest pattern: one scenario, every runtime), asserting the
// mode-appropriate retry path ran and the commit log replays.
func TestContendedViolatorsLive(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alloc Alloc
	}{
		{"serial", AllocDefault},
		{"batched", AllocAdaptive},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := microWorkload(t, 1, 2, 8)
			live := rtlive.New(42)
			opts := liveOpts(ModeHomeo, 2)
			opts.Alloc = tc.alloc
			opts.ClientsPerSite = 4
			opts.CleanupExec = true
			sys, err := New(live, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			sys.Run()
			if sys.Col.Committed == 0 {
				t.Fatal("live contention run committed nothing")
			}
			if live.Live() != 0 {
				t.Fatalf("%d processes alive after drain", live.Live())
			}
			if tc.alloc == AllocDefault && sys.Col.CoWinnerCommits != 0 {
				t.Fatalf("co-winners (%d) under AllocDefault", sys.Col.CoWinnerCommits)
			}
			if err := sys.CheckReplayEquivalence(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s live: commits=%d synced=%d co-winners=%d busyRetries=%d",
				tc.name, sys.Col.Committed, sys.Col.Synced,
				sys.Col.CoWinnerCommits, sys.BusyRetries)
		})
	}
}

// TestLivelockSurfacesDistinctly: a request whose execution never
// succeeds (permanent lock failure) hits the attempt bound and is
// reported as an unrecoverable error with the distinct livelock counter
// bumped — the caller (clientLoop, serve) then records the drop.
func TestLivelockSurfacesDistinctly(t *testing.T) {
	w := microWorkload(t, 2, 2, 100)
	e := sim.NewEngine(1)
	sys, err := New(e, w, baseOpts(ModeHomeo, 2))
	if err != nil {
		t.Fatal(err)
	}
	sys.Col.Measuring = true
	stuck := workload.Request{
		Name: "Stuck",
		Exec: func(workload.SiteView, []int64) error { return fmt.Errorf("permanent lock failure") },
	}
	var execErr error
	e.Spawn(0, func(p rt.Proc) {
		_, execErr = sys.ExecRequest(p, 0, stuck)
	})
	e.Run()
	if execErr == nil {
		t.Fatal("livelocked request returned no error")
	}
	if sys.Col.Livelocked != 1 {
		t.Fatalf("Livelocked = %d, want 1", sys.Col.Livelocked)
	}
	// The 100 retries each recorded a conflict abort before bailing out.
	if sys.Col.AbortedConflicts < 100 {
		t.Fatalf("AbortedConflicts = %d, want >= 100", sys.Col.AbortedConflicts)
	}
}

// TestAdaptiveBeatsEqualSplitUnderDrift pins the adaptive engine's
// reason to exist: under the hot-site rotation drift scenario the
// demand-proportional allocation synchronizes measurably less than the
// equal split and commits more. The simulator is deterministic, so the
// comparison is exact for the fixed seed.
func TestAdaptiveBeatsEqualSplitUnderDrift(t *testing.T) {
	runDrift := func(alloc Alloc) *System {
		w, err := micro.New(micro.Config{
			Items: 60, Refill: 100, NSites: 2,
			HotFrac: 0.9, HotWindow: 6, RotateEvery: 1200,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := baseOpts(ModeHomeo, 2)
		opts.Alloc = alloc
		opts.ClientsPerSite = 8
		opts.Measure = 4 * sim.Second
		sys, _ := runSystem(t, w, opts)
		if err := sys.CheckReplayEquivalence(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	eq := runDrift(AllocEqualSplit)
	ad := runDrift(AllocAdaptive)
	t.Logf("equal:    commits=%d sync=%.2f%%", eq.Col.Committed, eq.Col.SyncRatio())
	t.Logf("adaptive: commits=%d sync=%.2f%%", ad.Col.Committed, ad.Col.SyncRatio())
	if ad.Col.SyncRatio() >= eq.Col.SyncRatio() {
		t.Fatalf("adaptive sync ratio %.2f%% not below equal split %.2f%%",
			ad.Col.SyncRatio(), eq.Col.SyncRatio())
	}
	if ad.Col.Committed <= eq.Col.Committed {
		t.Fatalf("adaptive committed %d <= equal split %d",
			ad.Col.Committed, eq.Col.Committed)
	}
}

// TestAllocDefaultUnchanged pins the opt-in contract structurally:
// under AllocDefault the adaptive engine must be fully disengaged — no
// demand slices allocated on any unit, no co-winner commits, no
// batching, and the effective strategy/solver charge are the mode's
// builtins — so the seed execution path (and its goldens) cannot be
// perturbed.
func TestAllocDefaultUnchanged(t *testing.T) {
	w := microWorkload(t, 20, 2, 30) // tight refill: plenty of negotiations
	opts := baseOpts(ModeHomeo, 2)
	sys, _ := runSystem(t, w, opts)
	if sys.Col.Synced == 0 {
		t.Fatal("run produced no negotiations; contract not exercised")
	}
	if sys.batching() {
		t.Fatal("batching() reports enabled under AllocDefault")
	}
	if got := sys.der.strategy; got != stratModel {
		t.Fatalf("strategy under ModeHomeo = %v, want the builtin stratModel", got)
	}
	for _, u := range sys.Units {
		if u.demand != nil {
			t.Fatalf("unit %d has a demand layer allocated under AllocDefault", u.id)
		}
		if u.neg != nil {
			t.Fatalf("unit %d retains a negotiation pointer under AllocDefault", u.id)
		}
	}
	if sys.Col.CoWinnerCommits != 0 {
		t.Fatalf("co-winner commits (%d) recorded under AllocDefault", sys.Col.CoWinnerCommits)
	}
	// And the mode's solver-time accounting is untouched: the model
	// strategy charges base + L*f samples, exactly the seed formula
	// (L read back from sys.Opts, where New filled the default).
	want := 5*rt.Millisecond +
		rt.Duration(sys.Opts.Lookahead*costFactor)*500*rt.Microsecond
	if got := sys.solverTime(); got != want {
		t.Fatalf("solverTime = %v, want seed formula %v", got, want)
	}
}

// TestDemandTrackedOnlyWhenAdaptive: the adaptive split is the one reader
// of a unit's demand counters, so only AllocAdaptive allocates them and
// feeds them; the equal and model strategies batch renegotiation like it
// but track nothing.
func TestDemandTrackedOnlyWhenAdaptive(t *testing.T) {
	for _, alloc := range []Alloc{AllocDefault, AllocEqualSplit, AllocModel, AllocAdaptive} {
		w := microWorkload(t, 20, 2, 30)
		opts := baseOpts(ModeHomeo, 2)
		opts.Alloc = alloc
		sys, _ := runSystem(t, w, opts)
		if sys.Col.Committed == 0 {
			t.Fatalf("%v: no commits", alloc)
		}
		if got, want := sys.batching(), alloc != AllocDefault; got != want {
			t.Errorf("%v: batching() = %v, want %v", alloc, got, want)
		}
		var burn int64
		for _, u := range sys.Units {
			if (u.demand != nil) != (alloc == AllocAdaptive) {
				t.Fatalf("%v: unit %d has demand counters = %v", alloc, u.id, u.demand != nil)
			}
			for i := range u.demand {
				burn += u.demand[i].burn.Load() + u.demand[i].violations.Load()
			}
		}
		if alloc == AllocAdaptive && burn == 0 {
			t.Fatalf("%v: counters allocated but never fed", alloc)
		}
	}
}
