package homeostasis

// White-box tests for the elastic-membership state machines: the join
// prepare grant (a joiner that dies between phases is failed over by the
// ordinary grant expiry), drain's interaction with in-flight rounds, and
// an absorb round orphaned by coordinator death. External behavior
// (joins and drains between Systems) is covered by homeo's tests on
// fabric.Sim and the serve binary's elastic chaos drive; these pin the
// internal transitions deterministically on the simulator.

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/rt"
)

// TestJoinPrepareExpiryAbortsJoin: a joiner's prepare quiesced every
// unit and then the joiner died before activating. Grant expiry must
// abort the join — units unfrozen, membership width and epoch untouched
// — and a straggling activate for the expired round must be refused.
func TestJoinPrepareExpiryAbortsJoin(t *testing.T) {
	sys, eng, node := failoverSystem(t)
	width := sys.Opts.Topo.NSites()
	epoch := sys.Epoch()
	rid := fabric.RoundID{Site: width, Seq: 1} // coordinated by the joiner
	rep, err := node.JoinSite(fabric.JoinSite{
		Round: rid, Clock: 5, Site: width, Addr: "http://joiner", Phase: fabric.JoinPrepare,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Units) != len(sys.Units) {
		t.Fatalf("prepare cut covers %d units, want all %d", len(rep.Units), len(sys.Units))
	}
	for _, u := range sys.Units {
		if !u.negotiating {
			t.Fatal("prepare did not freeze every unit")
		}
	}

	eng.Run() // virtual time runs past the grant TTL; no activate arrives

	for _, u := range sys.Units {
		if u.negotiating {
			t.Fatal("unit still frozen after the join grant expired")
		}
	}
	if len(sys.rounds) != 0 {
		t.Fatalf("%d grants survive the expiry", len(sys.rounds))
	}
	if sys.Col.RoundsAborted != 1 {
		t.Fatalf("RoundsAborted = %d, want 1 (the expired join)", sys.Col.RoundsAborted)
	}
	if got := sys.Opts.Topo.NSites(); got != width {
		t.Fatalf("width = %d after an aborted join, want %d", got, width)
	}
	if sys.Epoch() != epoch {
		t.Fatalf("epoch moved to %d on an aborted join", sys.Epoch())
	}
	if _, err := node.JoinSite(fabric.JoinSite{
		Round: rid, Clock: 9, Site: width, Addr: "http://joiner", Phase: fabric.JoinActivate,
	}); err == nil {
		t.Fatal("activate after grant expiry was accepted; its cut is stale")
	}
	if got := sys.Opts.Topo.NSites(); got != width {
		t.Fatalf("expired activate grew the membership to %d sites", got)
	}
}

// TestDrainWithInflightRound: a drain that starts while a unit is frozen
// at the draining site under another coordinator's round must wait, not
// fail — here the other coordinator is dead, so the drain proceeds once
// grant expiry releases the unit, and the site's deltas are absorbed into
// the replicated base at every site.
func TestDrainWithInflightRound(t *testing.T) {
	c, systems := microSim(t)
	sys := systems[2]
	u := sys.Units[0]
	obj := u.objects[0]
	baseBefore := sys.Stores[2].Get(obj)
	// Site 2 has spent slack: a nonzero delta the drain must fold back.
	sys.Stores[2].Apply(lang.DeltaObj(obj, 2), -5)

	// An in-flight round whose coordinator died: the unit stays frozen
	// until the grant TTL fails it over.
	if _, err := sys.Node(2).CollectState(fabric.CollectState{
		Round: fabric.RoundID{Site: 0, Seq: 3}, Clock: 2, Units: []int{u.id}, Objs: u.objects,
	}); err != nil {
		t.Fatal(err)
	}
	if !u.negotiating {
		t.Fatal("remote collect did not freeze the unit")
	}

	var derr error
	c.eng.Spawn(1, func(p rt.Proc) { derr = sys.Drain(p, 2) })
	c.eng.Run()

	if derr != nil {
		t.Fatalf("drain with in-flight round: %v", derr)
	}
	if got := sys.SiteStatusName(2); got != "gone" {
		t.Fatalf("drained site status = %q, want gone", got)
	}
	if sys.Epoch() == 0 {
		t.Fatal("drain did not bump the membership epoch")
	}
	// Absorption: the site's delta folded into the replicated base and
	// zeroed at every site, each in its own System.
	for k, s := range systems {
		if got := s.SiteStatusName(2); got != "gone" {
			t.Fatalf("site %d sees the drained site as %q", k, got)
		}
		if got := s.Stores[k].Get(lang.DeltaObj(obj, 2)); got != 0 {
			t.Fatalf("site %d still holds delta %d for the drained site", k, got)
		}
		if got := s.Stores[k].Get(obj); got != baseBefore-5 {
			t.Fatalf("site %d base = %d after absorb, want %d", k, got, baseBefore-5)
		}
	}
	// The drain waited out the orphaned round rather than hijacking it.
	if sys.Col.RoundsAborted != 1 {
		t.Fatalf("RoundsAborted = %d, want 1 (the orphaned round the drain waited out)", sys.Col.RoundsAborted)
	}
}

// TestAbsorbCoordinatorDeathMidRound: this site received the state install
// of a drain's absorb round coordinated by another site — a winnerless
// InstallState; round 1 closed, the fold landed — and then the coordinator
// died before distributing round 2's treaties. The failover must keep the
// installed fold, release the round, append nothing to the commit log
// (absorb rounds are winnerless), pin the unit so it renegotiates from the
// moved base, and leave the membership epoch untouched (the drain never
// completed).
func TestAbsorbCoordinatorDeathMidRound(t *testing.T) {
	sys, eng, node := failoverSystem(t)
	u := sys.Units[0]
	epoch := sys.Epoch()
	rid := fabric.RoundID{Site: 0, Seq: 11}
	if _, err := node.CollectState(fabric.CollectState{
		Round: rid, Clock: 3, Units: []int{u.id}, Objs: u.objects,
	}); err != nil {
		t.Fatal(err)
	}
	folded := lang.Database{}
	for _, obj := range u.objects {
		folded[obj] = 55
	}
	if err := node.InstallState(fabric.InstallState{
		Round: rid, Clock: 20, Objs: u.objects, Folded: folded,
	}); err != nil {
		t.Fatal(err)
	}

	eng.Run() // the coordinator never distributes treaties; the grant expires

	if u.negotiating || len(sys.rounds) != 0 {
		t.Fatal("absorb round not released after coordinator death")
	}
	if got := sys.Stores[1].Get(u.objects[0]); got != 55 {
		t.Fatalf("installed fold lost on failover: base = %d, want 55", got)
	}
	if got, want := u.treaties[1].Local(), localPin(u.objects, 1, sys.Stores[1]); !reflect.DeepEqual(got, want) {
		t.Fatalf("unit not pinned at the moved base: treaty %v, want %v", got, want)
	}
	if len(sys.CommitLog) != 0 {
		t.Fatalf("winnerless absorb round adopted %d commits", len(sys.CommitLog))
	}
	if sys.Col.RoundsAborted != 1 || sys.Col.RoundsAdopted != 0 {
		t.Fatalf("aborted=%d adopted=%d, want 1/0 (winnerless installs count as aborts)",
			sys.Col.RoundsAborted, sys.Col.RoundsAdopted)
	}
	if sys.Epoch() != epoch {
		t.Fatalf("epoch moved to %d on an unfinished absorb (membership never changed)", sys.Epoch())
	}
}
