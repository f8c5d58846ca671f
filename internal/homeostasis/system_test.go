package homeostasis

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/treaty"
	"repro/internal/workload"
)

func microWorkload(t *testing.T, items, nSites int, refill int64) workload.Workload {
	t.Helper()
	w, err := micro.New(micro.Config{Items: items, Refill: refill, NSites: nSites})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runSystem(t *testing.T, w workload.Workload, opts Options) (*System, *System) {
	t.Helper()
	e := sim.NewEngine(opts.Seed)
	sys, err := New(e, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	return sys, sys
}

func baseOpts(mode Mode, nSites int) Options {
	return Options{
		Mode:           mode,
		Topo:           cluster.Uniform(nSites, 100*sim.Millisecond),
		ClientsPerSite: 4,
		CPUPerSite:     16,
		Lookahead:      20,
		CostFactor:     3,
		Warmup:         100 * sim.Millisecond,
		Measure:        3 * sim.Second,
		Seed:           42,
		EnableLog:      true,
	}
}

// finalFolded consolidates the final logical database across all sites.
func finalFolded(sys *System) lang.Database { return sys.FoldedDB() }

// TestTheorem38SerialEquivalence is the paper's correctness theorem,
// checked end-to-end: executing the committed transactions serially on
// the initial database (in an order consistent with per-site commit
// order) produces exactly the final consolidated database.
func TestTheorem38SerialEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeHomeo, ModeOpt, ModeHomeoDefault} {
		for _, nSites := range []int{2, 3} {
			w := microWorkload(t, 5, nSites, 20)
			opts := baseOpts(mode, nSites)
			sys, _ := runSystem(t, w, opts)
			if len(sys.CommitLog) == 0 {
				t.Fatalf("%v/%d sites: no commits", mode, nSites)
			}
			// Serial replay on the initial logical database.
			replay := w.InitialDB()
			for _, c := range sys.CommitLog {
				c.Apply(replay, c.Args)
			}
			final := finalFolded(sys)
			for obj, v := range final {
				if replay.Get(obj) != v {
					t.Fatalf("%v/%d sites: object %s: protocol %d, serial replay %d (%d commits)",
						mode, nSites, obj, v, replay.Get(obj), len(sys.CommitLog))
				}
			}
		}
	}
}

// TestGlobalTreatyInvariant: under homeostasis the logical value of every
// item never drops below the treaty floor (q >= 2 in the decrement
// region), i.e. bounded inconsistency really is bounded. We verify at the
// end of the run (the invariant holds at every commit by construction;
// the final state is a committed state).
func TestGlobalTreatyInvariant(t *testing.T) {
	w := microWorkload(t, 4, 2, 30)
	sys, _ := runSystem(t, w, baseOpts(ModeHomeo, 2))
	for obj, v := range finalFolded(sys) {
		if v < 1 {
			t.Fatalf("object %s: logical value %d below floor", obj, v)
		}
	}
}

// TestHomeoCommitsAreFastAndSyncsAreRare: the headline behavior —
// the vast majority of transactions commit at local latency; only a small
// fraction pays the ~2 RTT negotiation cost.
func TestHomeoCommitsAreFastAndSyncsAreRare(t *testing.T) {
	w := microWorkload(t, 50, 2, 100)
	sys, _ := runSystem(t, w, baseOpts(ModeHomeo, 2))
	col := sys.Col
	if col.Committed < 100 {
		t.Fatalf("committed = %d, too few to judge", col.Committed)
	}
	if ratio := col.SyncRatio(); ratio > 20 {
		t.Fatalf("sync ratio = %.1f%%, expected rare synchronization", ratio)
	}
	// Median latency is local (~2ms); p99.9-ish latency is ~2 RTT.
	if p50 := col.Latency.Percentile(50); p50 > 10*sim.Millisecond {
		t.Fatalf("p50 latency = %v, want local-scale", p50)
	}
	if max := col.Latency.Max(); max < 200*sim.Millisecond {
		t.Fatalf("max latency = %v, expected some ~2RTT negotiations", max)
	}
}

// TestTwoPCAlwaysPaysRTT: every 2PC transaction takes at least two round
// trips.
func TestTwoPCAlwaysPaysRTT(t *testing.T) {
	w := microWorkload(t, 50, 2, 100)
	opts := baseOpts(ModeTwoPC, 2)
	opts.Measure = 5 * sim.Second
	sys, _ := runSystem(t, w, opts)
	col := sys.Col
	if col.Committed == 0 {
		t.Fatal("no commits")
	}
	rtt := 100 * sim.Millisecond
	if p10 := col.Latency.Percentile(10); p10 < 2*rtt {
		t.Fatalf("2PC p10 latency = %v, want >= 2 RTT", p10)
	}
	// All replicas end up identical under 2PC.
	for s := 1; s < 2; s++ {
		for _, u := range sys.Units {
			for _, obj := range u.objects {
				if sys.Stores[0].Get(obj) != sys.Stores[s].Get(obj) {
					t.Fatalf("2PC replicas diverged on %s", obj)
				}
			}
		}
	}
}

// TestLocalModeDiverges: the local baseline provides no consistency:
// replicas drift apart (this is the paper's point about it being a
// bare-bones bound, not a correct system).
func TestLocalModeDiverges(t *testing.T) {
	w := microWorkload(t, 3, 2, 1000)
	opts := baseOpts(ModeLocal, 2)
	opts.Measure = 2 * sim.Second
	sys, _ := runSystem(t, w, opts)
	diverged := false
	for _, u := range sys.Units {
		for _, obj := range u.objects {
			if sys.Stores[0].Get(obj) != sys.Stores[1].Get(obj) {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("local mode unexpectedly kept replicas in sync")
	}
	// And it is fast: everything commits at local latency.
	if p100 := sys.Col.Latency.Max(); p100 > 50*sim.Millisecond {
		t.Fatalf("local mode max latency = %v", p100)
	}
}

// TestThroughputOrdering reproduces the Figure 11 ordering on a small
// scale: local >= opt ~ homeo >> 2pc.
func TestThroughputOrdering(t *testing.T) {
	tput := map[Mode]float64{}
	for _, mode := range []Mode{ModeHomeo, ModeOpt, ModeTwoPC, ModeLocal} {
		w := microWorkload(t, 100, 2, 100)
		opts := baseOpts(mode, 2)
		opts.ClientsPerSite = 8
		opts.Measure = 5 * sim.Second
		sys, _ := runSystem(t, w, opts)
		tput[mode] = sys.Col.Throughput()
	}
	if tput[ModeLocal] < tput[ModeHomeo] {
		t.Fatalf("local (%.0f) should be >= homeo (%.0f)", tput[ModeLocal], tput[ModeHomeo])
	}
	if tput[ModeHomeo] < 10*tput[ModeTwoPC] {
		t.Fatalf("homeo (%.0f) should dominate 2pc (%.0f) by >= 10x",
			tput[ModeHomeo], tput[ModeTwoPC])
	}
	if tput[ModeOpt] < tput[ModeHomeo]/2 {
		t.Fatalf("opt (%.0f) and homeo (%.0f) should be comparable",
			tput[ModeOpt], tput[ModeHomeo])
	}
}

// TestDefaultConfigSyncsEveryWrite: the Theorem 4.3 default pins every
// site's local sum, so every write violates and synchronizes — the
// degenerate "distributed locking" behavior the paper warns about. This
// is the optimizer ablation.
func TestDefaultConfigSyncsEveryWrite(t *testing.T) {
	w := microWorkload(t, 10, 2, 100)
	opts := baseOpts(ModeHomeoDefault, 2)
	opts.Measure = 5 * sim.Second
	sysDefault, _ := runSystem(t, w, opts)

	w2 := microWorkload(t, 10, 2, 100)
	opts2 := baseOpts(ModeHomeo, 2)
	opts2.Measure = 5 * sim.Second
	sysOptimized, _ := runSystem(t, w2, opts2)

	if r := sysDefault.Col.SyncRatio(); r < 95 {
		t.Fatalf("default-config sync ratio = %.1f%%, want ~100%%", r)
	}
	if r := sysOptimized.Col.SyncRatio(); r > 30 {
		t.Fatalf("optimized sync ratio = %.1f%%, want far below default", r)
	}
}

// TestDeterministicRuns: same seed, same results.
func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, float64) {
		w := microWorkload(t, 20, 2, 100)
		sys, _ := runSystem(t, w, baseOpts(ModeHomeo, 2))
		return sys.Col.Committed, sys.Col.SyncRatio()
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%d, %f) vs (%d, %f)", c1, r1, c2, r2)
	}
}

// TestMultiItemRequests: multi-unit transactions (Figure 27) commit and
// maintain the serial-replay equivalence.
func TestMultiItemRequests(t *testing.T) {
	w, err := micro.New(micro.Config{Items: 6, Refill: 30, NSites: 2, ItemsPerTxn: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := runSystem(t, w, baseOpts(ModeHomeo, 2))
	if sys.Col.Committed == 0 {
		t.Fatal("no commits")
	}
	replay := w.InitialDB()
	for _, c := range sys.CommitLog {
		c.Apply(replay, c.Args)
	}
	for obj, v := range finalFolded(sys) {
		if replay.Get(obj) != v {
			t.Fatalf("multi-item replay mismatch on %s: %d vs %d", obj, v, replay.Get(obj))
		}
	}
}

// TestConfigCacheServesIsomorphicUnits: items at the same quantity share
// treaty configurations through the deriver's memo.
func TestConfigCacheServesIsomorphicUnits(t *testing.T) {
	w := microWorkload(t, 50, 2, 100) // 50 identical items
	e := sim.NewEngine(1)
	sys, err := New(e, w, baseOpts(ModeHomeo, 2))
	if err != nil {
		t.Fatal(err)
	}
	// All 50 initial units are isomorphic: exactly one solver call.
	if sys.SolverInvocations() != 1 {
		t.Fatalf("solver invocations = %d, want 1 (cache)", sys.SolverInvocations())
	}
	if sys.CacheHits() != 49 {
		t.Fatalf("cache hits = %d, want 49", sys.CacheHits())
	}
	sys.Run()
	// Runtime negotiations hit varying quantities; the cache keeps the
	// solver-call count well below the negotiation count.
	if sys.Col.Synced > 0 && sys.SolverInvocations() > sys.Col.Synced+1 {
		t.Fatalf("solver calls (%d) exceed negotiations (%d)",
			sys.SolverInvocations(), sys.Col.Synced)
	}
}

// TestMeasureNameFilter: only the named transaction is recorded.
func TestMeasureNameFilter(t *testing.T) {
	w := tpccWorkload(t, 2, 10)
	e := sim.NewEngine(2)
	opts := baseOpts(ModeHomeo, 2)
	opts.MeasureName = "Payment"
	sys, err := New(e, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if sys.Col.Committed == 0 {
		t.Fatal("no payments recorded")
	}
	// Payment never synchronizes, so the filtered sync ratio is zero.
	if sys.Col.Synced != 0 {
		t.Fatalf("payment sync count = %d", sys.Col.Synced)
	}
}

// unitStub is a workload whose units the test appends, one object each,
// and whose global treaty fails for the unit named by fail.
type unitStub struct {
	objs []lang.ObjID
	fail int
}

func (w *unitStub) Name() string                          { return "stub" }
func (w *unitStub) InitialDB() lang.Database              { return lang.Database{} }
func (w *unitStub) NumUnits() int                         { return len(w.objs) }
func (w *unitStub) UnitObjects(unit int) []lang.ObjID     { return w.objs[unit : unit+1] }
func (w *unitStub) Model(int) treaty.WorkloadModel        { return nil }
func (w *unitStub) Next(*rand.Rand, int) workload.Request { return workload.Request{} }
func (w *unitStub) BuildGlobal(unit int, folded lang.Database) (treaty.Global, error) {
	if unit == w.fail {
		return treaty.Global{}, fmt.Errorf("no treaty for unit %d", unit)
	}
	return treaty.PinGlobal(w.UnitObjects(unit), 2, folded), nil
}

// TestAddUnitsFailureInstallsNoUnit: a registration batch whose second new
// unit fails to derive leaves the unit table as it found it, so the next
// registration — handed the same unit id once the registry has rolled the
// batch back — gets a unit of its own objects, not the failed batch's
// first.
func TestAddUnitsFailureInstallsNoUnit(t *testing.T) {
	w := &unitStub{objs: []lang.ObjID{"a"}, fail: -1}
	sys, err := New(sim.NewEngine(1), w, Options{Mode: ModeOpt, Topo: cluster.Uniform(2, rt.Millisecond), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.objs, w.fail = append(w.objs, "b", "c"), 2
	if err := sys.AddUnits(lang.Database{"b": 5, "c": 6}); err == nil || !strings.Contains(err.Error(), "no treaty for unit 2") {
		t.Fatalf("AddUnits = %v, want the failure of unit 2", err)
	}
	if len(sys.Units) != 1 {
		t.Fatalf("the failed batch left %d units, want the 1 it found", len(sys.Units))
	}
	w.objs, w.fail = append(w.objs[:1], "d"), -1
	if err := sys.AddUnits(lang.Database{"d": 7}); err != nil {
		t.Fatal(err)
	}
	if len(sys.Units) != 2 || !slices.Equal(sys.Units[1].objects, []lang.ObjID{"d"}) {
		t.Fatalf("the re-registered unit 1 governs %v, want [d]", sys.Units[1].objects)
	}
	if l := sys.UnitLocals(1)[0].String(); !strings.Contains(l, "d") || strings.Contains(l, "b") {
		t.Errorf("unit 1's treaty %s is not over its own object", l)
	}
}
