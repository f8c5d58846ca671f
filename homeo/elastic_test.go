package homeo_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/homeo"
	"repro/homeo/wire"
)

// The elastic operations run between the processes of a multi-process
// cluster. These tests run such a cluster's processes as Clusters on one
// simulator over fabric.Sim (homeo.SimFabric): seeded, in virtual time.

// simSites boots n Clusters on a fresh SimFabric, sites 0..n-1 of one
// cluster, each with spec registered and on the net.
func simSites(t *testing.T, n int, spec homeo.ClassSpec, opts homeo.Options) (*homeo.SimFabric, []*homeo.Cluster, []*homeo.TxnClass) {
	t.Helper()
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	f := homeo.NewSimFabric(opts)
	cs := make([]*homeo.Cluster, n)
	cls := make([]*homeo.TxnClass, n)
	for k := range cs {
		cs[k], cls[k] = bootSim(t, f, k, n, spec)
		f.Attach(cs[k])
	}
	return f, cs, cls
}

// bootSim boots the Cluster owning site of a width-site cluster on f, with
// spec registered and its log (if any) recovered, not yet on the net.
func bootSim(t *testing.T, f *homeo.SimFabric, site, width int, spec homeo.ClassSpec) (*homeo.Cluster, *homeo.TxnClass) {
	t.Helper()
	c, err := f.Boot(site, width)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cls, err := c.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	return c, cls
}

// joinSim boots the process that joins as site width, the way
// homeostasis-serve -join does: one site wider than the seed, the seed's
// gone slots fenced, admitted, then on the net.
func joinSim(t *testing.T, f *homeo.SimFabric, seed *homeo.Cluster, spec homeo.ClassSpec) (*homeo.Cluster, *homeo.TxnClass) {
	t.Helper()
	width := seed.Sites()
	j, cls := bootSim(t, f, width, width+1, spec)
	for k, st := range seed.SiteStatuses() {
		if st == "gone" {
			if err := j.MarkSiteGone(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if site, err := j.Join(homeo.SimAddr(width)); err != nil || site != width {
		t.Fatalf("Join = (%d, %v), want (%d, nil)", site, err, width)
	}
	f.Attach(j)
	return j, cls
}

// submit submits n invocations of cls at its cluster's own site.
func submit(t *testing.T, cls *homeo.TxnClass, c *homeo.Cluster, n int, args ...int64) (synced int) {
	t.Helper()
	for i := 0; i < n; i++ {
		res, err := c.Session().Submit(context.Background(), cls, args...)
		if err != nil {
			t.Fatalf("submit at site %d: %v", c.SelfSite(), err)
		}
		if res.Synced {
			synced++
		}
	}
	return synced
}

// mergedReplay checks Theorem 3.8 the multi-process way, as the drive does:
// every process's log merged, against the partitions of the sites still in
// the membership as check sees it.
func mergedReplay(check *homeo.Cluster, cs ...*homeo.Cluster) error {
	var logs [][]wire.LogEntry
	var parts []wire.PartitionResponse
	status := check.SiteStatuses()
	for _, c := range cs {
		logs = append(logs, c.WireLog())
		if status[c.SelfSite()] != "gone" {
			parts = append(parts, c.Partition())
		}
	}
	return check.CheckMergedReplay(logs, parts)
}

// TestJoinSim: a process joins a running cluster; the new site serves
// traffic, every member's width and epoch move, and replay equivalence
// holds across the membership change.
func TestJoinSim(t *testing.T) {
	spec := homeo.ClassSpec{L: depositSrc, Bounds: map[string][2]int64{"n": {1, 5}}, Initial: map[string]int64{"acct": 100}}
	f, cs, cls := simSites(t, 2, spec, homeo.Options{EnableLog: true})
	submit(t, cls[0], cs[0], 5, 2)
	submit(t, cls[1], cs[1], 5, 2)
	if got := cs[0].Sites(); got != 2 {
		t.Fatalf("Sites before join = %d, want 2", got)
	}
	epoch0 := cs[0].TopologyEpoch()

	j, jcls := joinSim(t, f, cs[0], spec)
	for _, c := range append(cs, j) {
		if c.Sites() != 3 || c.TopologyEpoch() <= epoch0 {
			t.Fatalf("site %d after the join: %d sites at epoch %d, want 3 past %d", c.SelfSite(), c.Sites(), c.TopologyEpoch(), epoch0)
		}
	}
	if st := cs[0].Stats(); st.Sites != 3 || st.ActiveSites != 3 {
		t.Fatalf("stats topology = %d sites / %d active, want 3/3", st.Sites, st.ActiveSites)
	}

	// The new site serves traffic, and the old ones keep doing so.
	submit(t, jcls, j, 20, 5)
	submit(t, cls[0], cs[0], 10, 1)
	if err := mergedReplay(cs[0], cs[0], cs[1], j); err != nil {
		t.Fatalf("replay equivalence across join: %v", err)
	}
}

// TestJoinGuardedClassStaysSound: a class is analysed at the width its
// process booted with, so after a join a round an older site coordinates
// must widen the global treaty to the joiner's delta, or the joiner's local
// treaty is a ground constraint — every withdrawal there commits locally
// and the balance runs through the guard's floor (Theorem 3.8 fails: the
// serial replay skips what the protocol committed).
func TestJoinGuardedClassStaysSound(t *testing.T) {
	spec := homeo.ClassSpec{L: withdrawSrc, Bounds: map[string][2]int64{"n": {1, 5}}, Initial: map[string]int64{"bal": 100}}
	f, cs, cls := simSites(t, 2, spec, homeo.Options{EnableLog: true})
	submit(t, cls[0], cs[0], 4, 5)
	j, jcls := joinSim(t, f, cs[0], spec)
	// Site 0 coordinates the first round past the join, on a class it
	// analysed for two sites: the joiner's treaty is the widened one.
	if synced := submit(t, cls[0], cs[0], 20, 5); synced == 0 {
		t.Fatal("no withdrawal at site 0 paid a round after the join")
	}
	treaties := jcls.Treaties()
	if len(treaties) != 3 || !strings.Contains(treaties[2], "bal@d2") {
		t.Errorf("site 2's treaty does not bound its own delta: %q", treaties)
	}
	submit(t, jcls, j, 60, 5)
	if err := mergedReplay(cs[0], cs[0], cs[1], j); err != nil {
		t.Fatalf("replay equivalence after a join: %v", err)
	}
}

// TestDrainSim: draining a site absorbs its deltas, fences it from new
// submissions, and keeps replay equivalence on the survivors; only the
// process owning a site can drain it, and only once.
func TestDrainSim(t *testing.T) {
	spec := homeo.ClassSpec{L: depositSrc, Bounds: map[string][2]int64{"n": {1, 5}}, Initial: map[string]int64{"acct": 90}}
	f, cs, cls := simSites(t, 3, spec, homeo.Options{EnableLog: true})
	// Commit at the doomed site so the drain has deltas to absorb.
	submit(t, cls[2], cs[2], 15, 3)
	if err := cs[0].Drain(2); err == nil || !strings.Contains(err.Error(), "cannot drain site 2") {
		t.Fatalf("site 0 draining site 2: %v, want a refusal", err)
	}
	epoch0 := cs[2].TopologyEpoch()
	if err := cs[2].Drain(2); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if cs[2].TopologyEpoch() <= epoch0 {
		t.Fatal("epoch did not advance on drain")
	}
	for _, c := range cs {
		st := c.Stats()
		if st.Sites != 3 || st.ActiveSites != 2 || st.SiteStatus[2] != "gone" {
			t.Fatalf("site %d's stats topology = %d sites / %d active, %v", c.SelfSite(), st.Sites, st.ActiveSites, st.SiteStatus)
		}
	}

	// The drained site refuses new work with the taxonomy error.
	_, err := cs[2].Session().Submit(context.Background(), cls[2], 1)
	if !errors.Is(err, homeo.ErrSiteGone) || homeo.ErrorCode(err) != "site_gone" {
		t.Fatalf("submit at drained site: %v (code %q), want ErrSiteGone / site_gone", err, homeo.ErrorCode(err))
	}

	// Survivors keep committing once the drained process is gone.
	f.Kill(cs[2])
	submit(t, cls[0], cs[0], 12, 2)
	submit(t, cls[1], cs[1], 12, 2)
	if err := mergedReplay(cs[0], cs...); err != nil {
		t.Fatalf("replay equivalence across drain: %v", err)
	}

	// Draining the same site again is an error (already gone).
	if err := cs[2].Drain(2); err == nil {
		t.Fatal("second drain of the same site succeeded")
	}
}

// TestMarkSiteGoneFencesAnUnwitnessedDrain: a process that boots into a
// cluster whose snapshot lists a gone slot fences it without having seen
// the drain — the slot reads gone and is skipped by the join handshake and
// by rounds (the drained process is gone: a message to it would be
// refused), while the epoch stays (the next observed membership change logs
// the table) and a repeated or out-of-range mark changes nothing.
func TestMarkSiteGoneFencesAnUnwitnessedDrain(t *testing.T) {
	spec := homeo.ClassSpec{L: withdrawSrc, Bounds: map[string][2]int64{"n": {1, 5}}, Initial: map[string]int64{"bal": 60}}
	f, cs, cls := simSites(t, 3, spec, homeo.Options{EnableLog: true})
	if err := cs[2].Drain(2); err != nil {
		t.Fatal(err)
	}
	f.Kill(cs[2])

	j, jcls := bootSim(t, f, 3, 4, spec)
	epoch := j.TopologyEpoch()
	for _, site := range []int{2, 2, -1, 4} {
		if err := j.MarkSiteGone(site); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Join(j.SiteStatuses(), ","); got != "active,active,gone,active" || j.ActiveSites() != 3 {
		t.Fatalf("statuses %s, %d active, want active,active,gone,active and 3", got, j.ActiveSites())
	}
	if j.TopologyEpoch() != epoch {
		t.Error("marking a slot gone bumped the epoch")
	}
	if _, err := j.Join(homeo.SimAddr(3)); err != nil {
		t.Fatalf("Join past the fenced slot: %v", err)
	}
	f.Attach(j)
	synced := submit(t, jcls, j, 20, 2) + submit(t, cls[0], cs[0], 20, 2)
	if synced == 0 {
		t.Error("no submission paid a round past the fenced slot")
	}
	if err := mergedReplay(cs[0], cs[0], cs[1], cs[2], j); err != nil {
		t.Fatalf("replay equivalence past the fenced slot: %v", err)
	}
}

// TestRoundsAfterDrainOfSiteZeroSim: a gone site's store stops at its
// absorb, so nothing may read the replicated base from site 0 once it has
// drained. Withdrawals keep violating their treaty after the drain; every
// round folds from the base, and one that read site 0's copy would
// resurrect the balance as it stood at the absorb.
func TestRoundsAfterDrainOfSiteZeroSim(t *testing.T) {
	spec := homeo.ClassSpec{L: withdrawSrc, Bounds: map[string][2]int64{"n": {1, 5}}, Initial: map[string]int64{"bal": 400}}
	f, cs, cls := simSites(t, 3, spec, homeo.Options{EnableLog: true})
	for k, c := range cs {
		submit(t, cls[k], c, 7, 3)
	}
	if err := cs[0].Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	f.Kill(cs[0])
	rounds := cs[1].Stats().Negotiations + cs[2].Stats().Negotiations
	submit(t, cls[1], cs[1], 63, 3)
	submit(t, cls[2], cs[2], 62, 3)
	if cs[1].Stats().Negotiations+cs[2].Stats().Negotiations == rounds {
		t.Fatal("no round ran after the drain; the test exercises nothing")
	}
	if err := mergedReplay(cs[1], cs...); err != nil {
		t.Fatalf("replay equivalence after draining site 0: %v", err)
	}
}

// TestJoinThenDrainSim: the full elastic lifecycle — grow by one, drain
// an original site, keep serving on the survivors — in one deterministic
// run.
func TestJoinThenDrainSim(t *testing.T) {
	spec := homeo.ClassSpec{L: depositSrc, Bounds: map[string][2]int64{"n": {1, 5}}, Initial: map[string]int64{"acct": 50}}
	f, cs, cls := simSites(t, 2, spec, homeo.Options{EnableLog: true})
	submit(t, cls[0], cs[0], 4, 2)
	submit(t, cls[1], cs[1], 4, 2)
	j, jcls := joinSim(t, f, cs[0], spec)
	submit(t, jcls, j, 8, 2)
	if err := cs[0].Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	submit(t, cls[1], cs[1], 8, 2)
	submit(t, jcls, j, 8, 2)
	for _, c := range []*homeo.Cluster{cs[1], j} {
		st := c.Stats()
		if st.Sites != 3 || st.ActiveSites != 2 || st.SiteStatus[0] != "gone" {
			t.Fatalf("site %d's topology = %v", c.SelfSite(), st.SiteStatus)
		}
	}
	if err := mergedReplay(cs[1], cs[0], cs[1], j); err != nil {
		t.Fatalf("replay equivalence across join+drain: %v", err)
	}
}

// TestStatsTopology: a snapshot of a cluster no membership change has
// touched carries the topology fields — every slot active, the epoch at 0.
func TestStatsTopology(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 2})
	st := c.Stats()
	if st.Sites != 2 || st.ActiveSites != 2 || st.TopologyEpoch != 0 ||
		strings.Join(st.SiteStatus, ",") != "active,active" || len(st.SiteAddrs) != 2 {
		t.Fatalf("stats topology = %+v", st)
	}
}

// TestElasticNeedsTheFabric: a cluster without Options.Fabric holds every
// site in one process and has no membership to change. Join, Drain and
// MarkSiteGone refuse, naming the requirement, and change nothing.
func TestElasticNeedsTheFabric(t *testing.T) {
	c := simCluster(t, homeo.Options{Sites: 3})
	if _, err := c.Register(homeo.ClassSpec{L: depositSrc}); err != nil {
		t.Fatal(err)
	}
	_, jerr := c.Join("")
	for what, err := range map[string]error{"Join": jerr, "Drain": c.Drain(1), "MarkSiteGone": c.MarkSiteGone(2)} {
		if err == nil || !strings.Contains(err.Error(), "Options.Fabric") {
			t.Errorf("%s on a single-process cluster: %v, want a refusal naming Options.Fabric", what, err)
		}
	}
	if c.Sites() != 3 || c.ActiveSites() != 3 || c.TopologyEpoch() != 0 {
		t.Fatalf("a refused operation changed the membership: %d sites, %d active, epoch %d", c.Sites(), c.ActiveSites(), c.TopologyEpoch())
	}
}
