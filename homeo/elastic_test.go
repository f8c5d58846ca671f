package homeo_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/homeo"
)

// TestJoinSim: an in-process cluster admits a fresh site mid-run; the
// new site serves traffic, the epoch bumps, and replay equivalence holds
// across the membership change.
func TestJoinSim(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 2, EnableLog: true})
	cls, err := c.Register(homeo.ClassSpec{
		L:       depositSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"acct": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Session()
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(context.Background(), cls, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Sites(); got != 2 {
		t.Fatalf("Sites before join = %d, want 2", got)
	}
	epoch0 := c.TopologyEpoch()

	joined, err := c.Join("")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if joined != 2 {
		t.Fatalf("joined site index = %d, want 2", joined)
	}
	if got := c.Sites(); got != 3 {
		t.Fatalf("Sites after join = %d, want 3", got)
	}
	if c.TopologyEpoch() <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, c.TopologyEpoch())
	}
	st := c.Stats()
	if st.Sites != 3 || st.ActiveSites != 3 {
		t.Fatalf("stats topology = %d sites / %d active, want 3/3", st.Sites, st.ActiveSites)
	}

	// The new site serves traffic, including synchronization rounds that
	// must now include it in the treaty configuration.
	at2, err := c.SessionAt(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := at2.Submit(context.Background(), cls, 5); err != nil {
			t.Fatalf("submit at joined site: %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(context.Background(), cls, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence across join: %v", err)
	}
}

// TestJoinGuardedClassStaysSound: a class is analysed at the width the
// cluster booted with, so after a join its global treaty must be widened to
// the joiner's delta or the joiner's local treaty is a ground constraint —
// every withdrawal there commits locally and the balance runs through the
// guard's floor (Theorem 3.8 fails: the serial replay skips what the
// protocol committed).
func TestJoinGuardedClassStaysSound(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 2, EnableLog: true})
	cls, err := c.Register(homeo.ClassSpec{
		L:       withdrawSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"bal": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := c.Session()
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(ctx, cls, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Join(""); err != nil {
		t.Fatalf("Join: %v", err)
	}
	at2, err := c.SessionAt(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := at2.Submit(ctx, cls, 5); err != nil {
			t.Fatalf("submit at joined site: %v", err)
		}
	}
	treaties := cls.Treaties()
	if len(treaties) != 3 || !strings.Contains(treaties[2], "bal@d2") {
		t.Errorf("site 2's treaty does not bound its own delta: %q", treaties)
	}
	// The older sites see none of what site 2 withdrew until a round folds
	// it: they keep spending their own slack on top.
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(ctx, cls, 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence after a join: %v", err)
	}
}

// TestDrainSim: draining a site absorbs its deltas, fences it from new
// submissions, and keeps replay equivalence on the survivors.
func TestDrainSim(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 3, EnableLog: true})
	cls, err := c.Register(homeo.ClassSpec{
		L:       depositSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"acct": 90},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Commit at the doomed site so the drain has deltas to absorb.
	at2, err := c.SessionAt(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if _, err := at2.Submit(context.Background(), cls, 3); err != nil {
			t.Fatal(err)
		}
	}
	epoch0 := c.TopologyEpoch()
	if err := c.Drain(2); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if c.TopologyEpoch() <= epoch0 {
		t.Fatal("epoch did not advance on drain")
	}
	st := c.Stats()
	if st.Sites != 3 || st.ActiveSites != 2 {
		t.Fatalf("stats topology = %d sites / %d active, want 3/2", st.Sites, st.ActiveSites)
	}
	if st.SiteStatus[2] != "gone" {
		t.Fatalf("site 2 status = %q, want gone", st.SiteStatus[2])
	}

	// The drained site refuses new work with the taxonomy error.
	if _, err := at2.Submit(context.Background(), cls, 1); !errors.Is(err, homeo.ErrSiteGone) {
		t.Fatalf("submit at drained site: %v, want ErrSiteGone", err)
	}
	if code := homeo.ErrorCode(err); code != "" {
		// (ErrorCode of the submit error checked below.)
		_ = code
	}
	_, serr := at2.Submit(context.Background(), cls, 1)
	if homeo.ErrorCode(serr) != "site_gone" {
		t.Fatalf("ErrorCode = %q, want site_gone", homeo.ErrorCode(serr))
	}

	// Survivors keep committing; round-robin routes around the hole.
	s := c.Session()
	for i := 0; i < 12; i++ {
		res, err := s.Submit(context.Background(), cls, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Site == 2 {
			t.Fatal("round-robin routed to the drained site")
		}
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence across drain: %v", err)
	}

	// Draining the same site again is an error (already gone).
	if err := c.Drain(2); err == nil {
		t.Fatal("second drain of the same site succeeded")
	}
}

// TestMarkSiteGoneFencesAnUnwitnessedDrain: a process that boots into a
// cluster whose snapshot lists a gone slot fences it without having seen
// the drain — the slot reads gone, refuses submissions with the taxonomy
// error and is skipped by routing and rounds, while the epoch stays (the
// next observed membership change logs the table) and a repeated or
// out-of-range mark changes nothing.
func TestMarkSiteGoneFencesAnUnwitnessedDrain(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 3, EnableLog: true})
	cls, err := c.Register(homeo.ClassSpec{
		L:       withdrawSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"bal": 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch := c.TopologyEpoch()
	for _, site := range []int{2, 2, -1, 3} {
		c.MarkSiteGone(site)
	}
	if got := strings.Join(c.SiteStatuses(), ","); got != "active,active,gone" || c.ActiveSites() != 2 {
		t.Fatalf("statuses %s, %d active, want active,active,gone and 2", got, c.ActiveSites())
	}
	if c.TopologyEpoch() != epoch {
		t.Error("marking a slot gone bumped the epoch")
	}
	at2, err := c.SessionAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := at2.Submit(context.Background(), cls, 1); !errors.Is(err, homeo.ErrSiteGone) {
		t.Fatalf("submit at the fenced site: %v, want ErrSiteGone", err)
	}
	synced := false
	for i := 0; i < 40; i++ {
		res, err := c.Session().Submit(context.Background(), cls, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Site == 2 {
			t.Fatal("round-robin routed to the fenced site")
		}
		synced = synced || res.Synced
	}
	if !synced {
		t.Error("no submission paid a round past the fenced slot")
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence past the fenced slot: %v", err)
	}
}

// TestMigrateSim: migrating a unit's demand home repairs the treaty
// configuration toward the target and preserves replay equivalence.
func TestMigrateSim(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 2, EnableLog: true, Alloc: homeo.AllocAdaptive})
	cls, err := c.Register(homeo.ClassSpec{
		L:       depositSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"acct": 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Burn slack at site 1 only: the demand vector should point there.
	at1, err := c.SessionAt(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := at1.Submit(context.Background(), cls, 4); err != nil {
			t.Fatal(err)
		}
	}
	unit := 0
	home := c.DemandHome(unit)
	if home != 1 {
		t.Logf("demand home = %d (burn accounting may lag); migrating to 1 anyway", home)
	}
	if err := c.MigrateUnit(unit, 1); err != nil {
		t.Fatalf("MigrateUnit: %v", err)
	}
	// Work keeps flowing at both sites after the migration.
	s := c.Session()
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(context.Background(), cls, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence across migration: %v", err)
	}

	// Migrating to a bogus site fails fast.
	if err := c.MigrateUnit(unit, 9); err == nil {
		t.Fatal("migration to a nonexistent site succeeded")
	}
}

// TestRoundsAfterDrainOfSiteZeroSim: a gone site's store stops at its
// absorb, so nothing may read the replicated base from site 0 once it has
// drained. Withdrawals keep violating their treaty after the drain; every
// round folds from the base, and one that read site 0's copy would
// resurrect the balance as it stood at the absorb.
func TestRoundsAfterDrainOfSiteZeroSim(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 3, EnableLog: true})
	cls, err := c.Register(homeo.ClassSpec{
		L:       withdrawSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"bal": 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Session()
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Submit(context.Background(), cls, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(20)
	if err := c.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	rounds := c.Stats().Negotiations
	submit(125)
	if c.Stats().Negotiations == rounds {
		t.Fatal("no round ran after the drain; the test exercises nothing")
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence after draining site 0: %v", err)
	}
}

// TestJoinThenDrainSim: the full elastic lifecycle — grow by one, drain
// an original site, keep serving, re-home a unit among the survivors — in
// one deterministic run.
func TestJoinThenDrainSim(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 2, EnableLog: true})
	cls, err := c.Register(homeo.ClassSpec{
		L:       depositSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"acct": 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Session()
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Submit(context.Background(), cls, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(8)
	if _, err := c.Join(""); err != nil {
		t.Fatalf("Join: %v", err)
	}
	submit(8)
	if err := c.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	submit(8)
	// The migration is coordinated by a member, whichever sites have left.
	if err := c.MigrateUnit(0, 2); err != nil {
		t.Fatalf("MigrateUnit after draining site 0: %v", err)
	}
	submit(8)
	st := c.Stats()
	if st.Sites != 3 || st.ActiveSites != 2 || st.SiteStatus[0] != "gone" {
		t.Fatalf("topology = %+v", st.SiteStatus)
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay equivalence across join+drain: %v", err)
	}
}

// TestWatchStatsTopology: WatchStats surfaces the topology fields (smoke
// for the streaming path after the membership additions).
func TestWatchStatsTopology(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	for st := range c.WatchStats(ctx, 50*time.Millisecond) {
		if st.Sites != 2 || len(st.SiteStatus) != 2 {
			t.Fatalf("stats topology = %+v", st)
		}
		cancel()
	}
}
