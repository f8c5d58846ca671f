package homeostasis

// White-box tests for coordinator failover (see failoverGrant): a remote
// round whose coordinator dies is aborted if its state install never
// arrived here, and adopted — winner logged, units pinned — if it did.
// External behavior (kill-and-recover) is covered by homeo's seeded
// kill-drive twin and the serve binary's chaos drive; these tests pin the
// per-grant state machine deterministically on the simulator.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/fabric/codec"
	"repro/internal/fabric/fabrictest"
	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/sim"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// microSim boots a 3-site micro cluster on the simulator, one System per
// site over fabric.Sim.
func microSim(t *testing.T) (*simCluster, []*System) {
	t.Helper()
	c := newSimCluster(t, 2*rt.Millisecond, Options{Seed: 1, EnableLog: true}, func(width int) workload.Workload {
		w, err := micro.New(micro.Config{Items: 4, Refill: 40, NSites: width})
		if err != nil {
			t.Fatal(err)
		}
		return w
	})
	return c, c.bootAll(3)
}

// failoverSystem returns the System that owns site 1 of a 3-site
// simulated cluster (microSim), so remote-round grants and the failover
// paths can be driven directly through its site actor.
func failoverSystem(t *testing.T) (*System, *sim.Engine, fabric.Node) {
	t.Helper()
	c, systems := microSim(t)
	return systems[1], c.eng, systems[1].Node(1)
}

// snapshotUnit captures a unit's base and delta values at one site.
func snapshotUnit(sys *System, site int, u *unitState) lang.Database {
	st := sys.Stores[site]
	out := lang.Database{}
	for _, obj := range u.objects {
		out[obj] = st.Get(obj)
		for k := 0; k < sys.Opts.Topo.NSites(); k++ {
			d := lang.DeltaObj(obj, k)
			out[d] = st.Get(d)
		}
	}
	return out
}

// TestGrantExpiryAbortsUninstalledRound: the coordinator granted round 1
// (collect) and vanished before installing anything. On grant expiry the
// round is aborted: state, treaties, and commit log untouched, the unit
// unfrozen, and the abort counted.
func TestGrantExpiryAbortsUninstalledRound(t *testing.T) {
	sys, eng, node := failoverSystem(t)
	u := sys.Units[0]
	rid := fabric.RoundID{Site: 0, Seq: 7}
	if _, err := node.CollectState(fabric.CollectState{
		Round: rid, Clock: 3, Units: []int{u.id}, Objs: u.objects,
	}); err != nil {
		t.Fatal(err)
	}
	if !u.negotiating {
		t.Fatal("remote collect did not freeze the unit")
	}
	before := snapshotUnit(sys, 1, u)
	beforeVersion := u.version
	beforeLocal := u.treaties[1].Local()

	eng.Run() // virtual time runs past the grant TTL

	if got, want := sys.Col.RoundsAborted, int64(1); got != want {
		t.Fatalf("RoundsAborted = %d, want %d", got, want)
	}
	if sys.Col.RoundsAdopted != 0 {
		t.Fatalf("RoundsAdopted = %d, want 0", sys.Col.RoundsAdopted)
	}
	if u.negotiating {
		t.Fatal("unit still frozen after failover")
	}
	if len(sys.rounds) != 0 {
		t.Fatalf("%d rounds still granted after failover", len(sys.rounds))
	}
	if len(sys.CommitLog) != 0 {
		t.Fatalf("abort path appended %d commit-log entries", len(sys.CommitLog))
	}
	if got := snapshotUnit(sys, 1, u); !reflect.DeepEqual(got, before) {
		t.Fatalf("abort path changed state: %v -> %v", before, got)
	}
	if u.version != beforeVersion || !reflect.DeepEqual(u.treaties[1].Local(), beforeLocal) {
		t.Fatal("abort path touched the unit's treaties; it must resume under the current generation")
	}
}

// TestRejoinAdoptsInstalledRound: the coordinator's InstallState landed
// (round 1 complete, winner known) and then its restarted incarnation
// rejoins. The orphaned round fails over immediately: the winner is
// adopted into the commit log keyed by round id, the unit degrades to a
// pin treaty (never resumes on the dead round's generation), and the
// rejoin reply forces the coordinator to repair the unit.
func TestRejoinAdoptsInstalledRound(t *testing.T) {
	sys, _, node := failoverSystem(t)
	u := sys.Units[0]
	rid := fabric.RoundID{Site: 0, Seq: 9}
	if _, err := node.CollectState(fabric.CollectState{
		Round: rid, Clock: 3, Units: []int{u.id}, Objs: u.objects,
	}); err != nil {
		t.Fatal(err)
	}
	folded := lang.Database{}
	for _, obj := range u.objects {
		folded[obj] = 77
	}
	winner := &fabric.WinnerCommit{
		Class: "order", Args: []int64{2}, Site: 0, Units: []int{u.id}, Log: []int64{5},
	}
	if err := node.InstallState(fabric.InstallState{
		Round: rid, Clock: 40, Objs: u.objects, Folded: folded, Winner: winner,
	}); err != nil {
		t.Fatal(err)
	}

	versions := make(map[int]int64, len(sys.Units))
	for _, uu := range sys.Units {
		versions[uu.id] = uu.version
	}
	rep, err := node.Rejoin(fabric.Rejoin{Site: 0, Clock: 41, Versions: versions})
	if err != nil {
		t.Fatal(err)
	}

	if sys.Col.RoundsAdopted != 1 || sys.Col.RoundsAborted != 0 {
		t.Fatalf("adopted=%d aborted=%d, want 1/0", sys.Col.RoundsAdopted, sys.Col.RoundsAborted)
	}
	if len(sys.CommitLog) != 1 {
		t.Fatalf("commit log has %d entries, want the adopted winner", len(sys.CommitLog))
	}
	e := sys.CommitLog[0]
	if e.Name != winner.Class || e.Site != winner.Site || e.Clock != 40 {
		t.Fatalf("adopted entry = %+v", e)
	}
	if e.Round == nil || *e.Round != rid {
		t.Fatalf("adopted entry's round key = %v, want %v (the merged-log dedup key)", e.Round, rid)
	}
	if e.Apply != nil {
		t.Fatal("adopted entry must carry no Apply closure (it replays through the class registry)")
	}
	if u.negotiating || len(sys.rounds) != 0 {
		t.Fatal("round not fully released after adoption")
	}

	// The rejoin reply must force the repair even though the treaty
	// version never moved (the base moved without a version bump).
	var repaired *fabric.RejoinUnit
	for i := range rep.Units {
		if rep.Units[i].Unit == u.id {
			repaired = &rep.Units[i]
		}
	}
	if repaired == nil {
		t.Fatal("rejoin reply did not name the installed round's unit for repair")
	}
	if !repaired.Force {
		t.Fatal("repair not forced; version comparison alone would miss the moved base")
	}
	if got := repaired.Base.Get(u.objects[0]); got != 77 {
		t.Fatalf("repair base = %d, want the installed fold (77)", got)
	}

	// No stale-treaty resume: a late round-2 install from the dead
	// coordinator's generation is version-guarded into a no-op.
	pinned := u.treaties[1].Local()
	if err := node.InstallTreaties(fabric.InstallTreaties{
		Round: rid, Clock: 42,
		Units: []fabric.UnitTreaty{{Unit: u.id, Local: treaty.Local{Site: 1}, Version: u.version - 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u.treaties[1].Local(), pinned) {
		t.Fatal("late stale-generation treaty replaced the failover pin")
	}
}

// TestSiteRefusesTreatyOverAnotherSitesObjects: the commit check reads a
// treaty's objects out of the site's own store, so a site must not install a
// treaty a peer sent that mentions anything outside its partition — another
// site's delta or (off site 0) a base object would be checked against a
// stale replica value. Refused at the Node and through the peer handler's
// codec bytes, slot and version untouched; a treaty over the site's own
// delta still installs.
func TestSiteRefusesTreatyOverAnotherSitesObjects(t *testing.T) {
	sys, _, node := failoverSystem(t)
	u := sys.Units[0]
	obj := u.objects[0]
	over := func(o lang.ObjID) fabric.InstallTreaties {
		return fabric.InstallTreaties{
			Round: fabric.RoundID{Site: 0, Seq: 3}, Clock: 9, Site: 1,
			Units: []fabric.UnitTreaty{{Unit: u.id, Version: u.version + 1, Local: treaty.Local{
				Site:        1,
				Constraints: []treaty.Constraint{{Terms: []treaty.Term{{Obj: o, Coeff: -1}}, Const: -5, Op: lia.LE}},
			}}},
		}
	}
	srv := httptest.NewServer(fabric.NewPeerHandler(node, nil, ""))
	defer srv.Close()
	post := func(o lang.ObjID) (int, string) {
		t.Helper()
		body, err := codec.AppendMessage(nil, &wire.PeerInstallTreaties{
			From: 0, Round: 3, Clock: 9, Site: 1,
			Units: []wire.PeerUnitTreaty{{Unit: u.id, Version: u.version + 1, Constraints: []wire.PeerConstraint{
				{Coeffs: map[string]int64{string(o): -1}, Const: -5, Op: "<="},
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/peer/install-treaties", codec.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(reply)
	}

	before, beforeVersion := u.treaties[1].Local(), u.version
	for _, foreign := range []lang.ObjID{lang.DeltaObj(obj, 0), lang.DeltaObj(obj, 2), obj} {
		err := node.InstallTreaties(over(foreign))
		if err == nil || !strings.Contains(err.Error(), string(foreign)) {
			t.Errorf("Node.InstallTreaties over %s: err = %v, want a refusal naming it", foreign, err)
		}
		if status, reply := post(foreign); status != http.StatusInternalServerError || !strings.Contains(reply, string(foreign)) {
			t.Errorf("POST install-treaties over %s: %d %s, want a 500 naming it", foreign, status, reply)
		}
	}
	if u.version != beforeVersion || !reflect.DeepEqual(u.treaties[1].Local(), before) {
		t.Fatal("a refused treaty moved the slot or the version")
	}
	if status, reply := post(lang.DeltaObj(obj, 1)); status != http.StatusOK {
		t.Fatalf("POST install-treaties over the site's own delta: %d %s", status, reply)
	}
	if u.version != beforeVersion+1 || reflect.DeepEqual(u.treaties[1].Local(), before) {
		t.Fatal("a treaty over the site's own delta was not installed")
	}
}

// TestNodeKeepsNoPeerScratch: the peer handler serves a request out of
// pooled scratch and a coordinator reads a reply out of a pooled call;
// with every piece of that scratch scribbled over the moment it is given
// back (fabric.ScratchHook), what the site and the coordinator kept of the
// messages is untouched — the grant's unit list, the reply the coordinator
// folds from, the winner a grant expiry adopts, the installed local treaty.
func TestNodeKeepsNoPeerScratch(t *testing.T) {
	fabric.ScratchHook = fabrictest.Scribble
	defer func() { fabric.ScratchHook = nil }()
	sys, eng, node := failoverSystem(t)
	srv := httptest.NewServer(fabric.NewPeerHandler(node, nil, ""))
	defer srv.Close()
	// The coordinator: site 0 of a transport whose only peer is the site
	// under test. Its own site is a stub; what it says is not looked at.
	live := rtlive.New(1)
	tr := fabric.NewHTTP(live, 0, []string{"http://unused.invalid", srv.URL}, &fabrictest.StubNode{}, nil)
	onCoordinator := func(fn func(p rt.Proc) error) {
		t.Helper()
		done := make(chan error, 1)
		live.Spawn(0, func(p rt.Proc) { done <- fn(p) })
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	u := sys.Units[0]
	sys.Stores[1].Apply(sys.deltaName(u.objects[0], 1), -3)
	want := sys.ownDeltas(1, u.objects)
	rid := fabric.RoundID{Site: 0, Seq: 7}
	var replies []fabric.StateReply
	onCoordinator(func(p rt.Proc) (err error) {
		replies, err = tr.Collect(p, 0, func() fabric.CollectState {
			return fabric.CollectState{Round: rid, Clock: 3, Units: []int{u.id}, Objs: u.objects}
		})
		return err
	})
	if !replies[1].Values.Equal(want) {
		t.Errorf("the coordinator folds from %v, the site reported %v", replies[1].Values, want)
	}
	g := sys.rounds[rid]
	if g == nil || !reflect.DeepEqual(g.units, []int{u.id}) {
		t.Fatalf("the grant holds units %+v, want [%d]", g, u.id)
	}

	folded := lang.Database{}
	for _, obj := range u.objects {
		folded[obj] = 77
	}
	winner := fabric.WinnerCommit{Class: "order", Args: []int64{2, 3}, Site: 0, Units: []int{u.id}, Log: []int64{5}}
	sent := winner
	onCoordinator(func(p rt.Proc) error {
		return tr.Install(p, 0, fabric.InstallState{Round: rid, Clock: 40, Objs: u.objects, Folded: folded, Winner: &sent})
	})
	if g.winner == nil || !reflect.DeepEqual(*g.winner, winner) {
		t.Fatalf("the grant holds winner %+v, want %+v", g.winner, winner)
	}
	if got := sys.Stores[1].Get(u.objects[0]); got != 77 {
		t.Errorf("installed base = %d, want the fold (77)", got)
	}

	// A second round's messages go through the same scratch, then the first
	// round's coordinator is given up on.
	other := sys.Units[1]
	onCoordinator(func(p rt.Proc) error {
		_, err := tr.Collect(p, 0, func() fabric.CollectState {
			return fabric.CollectState{Round: fabric.RoundID{Site: 0, Seq: 8}, Clock: 41, Units: []int{other.id}, Objs: other.objects}
		})
		return err
	})
	eng.Run() // virtual time runs past the grant TTL
	if sys.Col.RoundsAdopted != 1 || len(sys.CommitLog) != 1 {
		t.Fatalf("adopted=%d, commit log has %d entries, want the one adopted winner", sys.Col.RoundsAdopted, len(sys.CommitLog))
	}
	e := sys.CommitLog[0]
	adopted := fabric.WinnerCommit{Class: e.Name, Args: e.Args, Site: e.Site, Units: e.Units, Log: e.Log}
	if !reflect.DeepEqual(adopted, winner) || e.Clock != 40 {
		t.Errorf("adopted entry = %+v, want %+v at clock 40", e, winner)
	}

	local := treaty.Local{Site: 1, Constraints: []treaty.Constraint{
		{Terms: []treaty.Term{{Obj: lang.DeltaObj(other.objects[0], 1), Coeff: -1}}, Const: -5, Op: lia.LE},
		{Terms: []treaty.Term{{Obj: lang.DeltaObj(other.objects[0], 1), Coeff: 1}}, Const: -9, Op: lia.LT},
	}}
	version := other.version + 1
	onCoordinator(func(p rt.Proc) error {
		return tr.Distribute(p, 0, []fabric.InstallTreaties{{}, {
			Round: fabric.RoundID{Site: 0, Seq: 9}, Clock: 50, Site: 1,
			Units: []fabric.UnitTreaty{{Unit: other.id, Version: version, Local: local}},
		}})
	})
	// More traffic through the install-treaties scratch.
	onCoordinator(func(p rt.Proc) error {
		return tr.Distribute(p, 0, []fabric.InstallTreaties{{}, {Round: fabric.RoundID{Site: 0, Seq: 10}, Clock: 51, Site: 1}})
	})
	if got := other.treaties[1].Local(); other.version != version || !reflect.DeepEqual(got, local) {
		t.Errorf("installed local treaty (version %d) = %+v, want version %d of %+v", other.version, got, version, local)
	}
	if !other.treaties[1].Holds(sys.Stores[1]) {
		t.Error("the installed treaty does not hold")
	}
}
