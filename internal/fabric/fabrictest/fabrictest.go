// Package fabrictest is a conformance suite for implementations of the
// fabric.Transport contract, mirroring internal/rt/rttest. The shipped
// transports run it: fabric.Local (in-process, simulator) its round half,
// fabric.HTTP (real sockets, wall-clock runtime) and fabric.Sim (one
// simulator) all of it. The suite checks the behaviors the coordinator
// depends on: scatter/gather delivery and reply ordering, partial-failure
// surfacing with site attribution (busy refusals included), per-site
// treaty distribution, message round-trip encoding (values, object names,
// treaty constraints), and the membership handshakes.
package fabrictest

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/rt"
	"repro/internal/treaty"
)

// Harness is one transport under test.
type Harness struct {
	// Transport is the implementation under test, wired to Nodes.
	Transport fabric.Transport
	// Nodes are the stub site actors the transport delivers to, indexed
	// by site.
	Nodes []*StubNode
	// Exec runs fn on a process of the transport's runtime and waits for
	// it to finish (transport methods need process context).
	Exec func(fn func(p rt.Proc))
}

// Factory builds a fresh n-site harness for one subtest.
type Factory func(t *testing.T, n int) *Harness

// StubNode is a scripted fabric.Node recording every message it handles.
// It is self-synchronized, so harnesses may deliver from any goroutine.
type StubNode struct {
	Site int

	mu       sync.Mutex
	Collects []fabric.CollectState
	Installs []fabric.InstallState
	Treaties []fabric.InstallTreaties
	Aborts   []fabric.AbortRound
	Rejoins  []fabric.Rejoin
	Joins    []fabric.JoinSite
	Drains   []fabric.DrainSite

	// CollectErr, when set, makes CollectState fail with it.
	CollectErr error
	// JoinErr, when set, makes JoinSite fail with it.
	JoinErr error
}

// CollectState implements fabric.Node: it replies with one delta value
// per requested object, derived deterministically from the site and the
// object name length (negative for odd sites, exercising sign encoding).
func (s *StubNode) CollectState(m fabric.CollectState) (fabric.StateReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.CollectErr != nil {
		return fabric.StateReply{}, s.CollectErr
	}
	s.Collects = append(s.Collects, m)
	vals := lang.Database{}
	for _, obj := range m.Objs {
		v := int64(s.Site*100 + len(obj))
		if s.Site%2 == 1 {
			v = -v
		}
		vals[lang.DeltaObj(obj, s.Site)] = v
	}
	return fabric.StateReply{Clock: m.Clock + int64(s.Site) + 1, Values: vals}, nil
}

func (s *StubNode) InstallState(m fabric.InstallState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Installs = append(s.Installs, m)
	return nil
}

func (s *StubNode) InstallTreaties(m fabric.InstallTreaties) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Treaties = append(s.Treaties, m)
	return nil
}

func (s *StubNode) AbortRound(m fabric.AbortRound) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Aborts = append(s.Aborts, m)
	return nil
}

// Rejoin implements fabric.Node: it records the handshake and answers
// with one deterministically-derived repair unit, exercising the reply's
// full round-trip encoding (version, force flag, base values).
func (s *StubNode) Rejoin(m fabric.Rejoin) (fabric.RejoinReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Rejoins = append(s.Rejoins, m)
	return fabric.RejoinReply{
		Clock: m.Clock + int64(s.Site) + 1,
		Units: []fabric.RejoinUnit{{
			Unit:    s.Site,
			Version: int64(10 + s.Site),
			Force:   s.Site%2 == 1,
			Base:    lang.Database{lang.ObjID(fmt.Sprintf("stock_%d", s.Site)): int64(-5 * s.Site)},
		}},
	}, nil
}

// JoinSite implements fabric.Node: it records the handshake and answers
// with a deterministic partition cut on the prepare phase (exercising the
// reply's unit/version/base round-trip) and an epoch on activate.
func (s *StubNode) JoinSite(m fabric.JoinSite) (fabric.JoinReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.JoinErr != nil {
		return fabric.JoinReply{}, s.JoinErr
	}
	s.Joins = append(s.Joins, m)
	rep := fabric.JoinReply{Clock: m.Clock + int64(s.Site) + 1, Epoch: int64(100 + s.Site)}
	if m.Phase == fabric.JoinPrepare {
		rep.Units = []fabric.JoinUnit{{
			Unit:    s.Site,
			Version: int64(20 + s.Site),
			Base:    lang.Database{lang.ObjID(fmt.Sprintf("stock_%d", s.Site)): int64(7 * s.Site)},
		}}
	}
	return rep, nil
}

// DrainSite implements fabric.Node: it records the announcement and
// replies with a deterministic epoch.
func (s *StubNode) DrainSite(m fabric.DrainSite) (fabric.DrainReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Drains = append(s.Drains, m)
	return fabric.DrainReply{Clock: m.Clock + int64(s.Site) + 1, Epoch: int64(200 + s.Site)}, nil
}

// Snapshot returns copies of the recorded messages.
func (s *StubNode) Snapshot() (c []fabric.CollectState, i []fabric.InstallState, t []fabric.InstallTreaties, a []fabric.AbortRound) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(c, s.Collects...), append(i, s.Installs...), append(t, s.Treaties...), append(a, s.Aborts...)
}

var _ fabric.Node = (*StubNode)(nil)

// RunRound executes the round half of the suite — what every transport
// carries — against harnesses built by mk.
func RunRound(t *testing.T, mk Factory) {
	t.Run("CollectScatterGather", func(t *testing.T) { testCollect(t, mk(t, 3)) })
	t.Run("CollectPartialFailure", func(t *testing.T) { testPartialFailure(t, mk(t, 3)) })
	t.Run("CollectBusy", func(t *testing.T) { testBusy(t, mk(t, 3)) })
	t.Run("InstallStateDelivery", func(t *testing.T) { testInstallState(t, mk(t, 3)) })
	t.Run("DistributePerSite", func(t *testing.T) { testDistribute(t, mk(t, 3)) })
	t.Run("AbortDelivery", func(t *testing.T) { testAbort(t, mk(t, 2)) })
}

// Run executes the whole suite, the membership handshakes included,
// against harnesses built by mk, whose transports must be fabric.Elastic.
func Run(t *testing.T, mk Factory) {
	RunRound(t, mk)
	t.Run("RejoinHandshake", func(t *testing.T) { testRejoin(t, mk(t, 3)) })
	t.Run("JoinHandshake", func(t *testing.T) { testJoin(t, mk(t, 3)) })
	t.Run("DrainBroadcast", func(t *testing.T) { testDrain(t, mk(t, 3)) })
}

func round(site int) fabric.RoundID { return fabric.RoundID{Site: site, Seq: 7} }

// testCollect checks the round-1 scatter/gather: every site sees exactly
// one CollectState carrying the full message, and the gathered replies
// are indexed by site with values intact (round-trip encoding).
func testCollect(t *testing.T, h *Harness) {
	objs := []lang.ObjID{"stock_1", "s", "a_longer_object_name"}
	var replies []fabric.StateReply
	var err error
	h.Exec(func(p rt.Proc) {
		replies, err = h.Transport.Collect(p, 0, func() fabric.CollectState {
			return fabric.CollectState{Round: round(0), Clock: 42, Units: []int{3, 5}, Objs: objs}
		})
	})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(replies) != len(h.Nodes) {
		t.Fatalf("Collect returned %d replies, want %d", len(replies), len(h.Nodes))
	}
	for site, n := range h.Nodes {
		cs, _, _, _ := n.Snapshot()
		if len(cs) != 1 {
			t.Fatalf("site %d handled %d collects, want 1", site, len(cs))
		}
		m := cs[0]
		if m.Round != round(0) || m.Clock != 42 {
			t.Errorf("site %d collect header = %+v", site, m)
		}
		if fmt.Sprint(m.Units) != fmt.Sprint([]int{3, 5}) || fmt.Sprint(m.Objs) != fmt.Sprint(objs) {
			t.Errorf("site %d collect payload: units=%v objs=%v", site, m.Units, m.Objs)
		}
		// The reply at index `site` must be that site's values, verbatim
		// (the stub's deterministic derivation, negatives included).
		wantVals := lang.Database{}
		for _, obj := range objs {
			v := int64(site*100 + len(obj))
			if site%2 == 1 {
				v = -v
			}
			wantVals[lang.DeltaObj(obj, site)] = v
		}
		if !replies[site].Values.Equal(wantVals) {
			t.Errorf("site %d reply values = %v, want %v", site, replies[site].Values, wantVals)
		}
		if want := int64(42 + site + 1); replies[site].Clock != want {
			t.Errorf("site %d reply clock = %d, want %d", site, replies[site].Clock, want)
		}
	}
}

// testPartialFailure checks that one failing site surfaces as a
// *fabric.SiteError naming it.
func testPartialFailure(t *testing.T, h *Harness) {
	h.Nodes[2].CollectErr = errors.New("disk on fire")
	var err error
	h.Exec(func(p rt.Proc) {
		_, err = h.Transport.Collect(p, 0, func() fabric.CollectState {
			return fabric.CollectState{Round: round(0), Objs: []lang.ObjID{"x"}}
		})
	})
	if err == nil {
		t.Fatal("Collect succeeded despite a failing site")
	}
	var se *fabric.SiteError
	if !errors.As(err, &se) {
		t.Fatalf("Collect error %v is not a *fabric.SiteError", err)
	}
	if se.Site != 2 {
		t.Errorf("failure attributed to site %d, want 2", se.Site)
	}
}

// testBusy checks that a busy refusal keeps its identity through the
// transport (errors.Is must see fabric.ErrBusy) and wins over other
// failures.
func testBusy(t *testing.T, h *Harness) {
	h.Nodes[1].CollectErr = fabric.ErrBusy
	h.Nodes[2].CollectErr = errors.New("also broken")
	var err error
	h.Exec(func(p rt.Proc) {
		_, err = h.Transport.Collect(p, 0, func() fabric.CollectState {
			return fabric.CollectState{Round: round(0), Objs: []lang.ObjID{"x"}}
		})
	})
	if !errors.Is(err, fabric.ErrBusy) {
		t.Fatalf("Collect error %v does not unwrap to ErrBusy", err)
	}
	var se *fabric.SiteError
	if errors.As(err, &se) && se.Site != 1 {
		t.Errorf("busy attributed to site %d, want 1", se.Site)
	}
}

// testInstallState checks folded-state delivery to every site.
func testInstallState(t *testing.T, h *Harness) {
	folded := lang.Database{"x": 41, "y": -7}
	var err error
	h.Exec(func(p rt.Proc) {
		err = h.Transport.Install(p, 1, fabric.InstallState{
			Round: round(1), Clock: 9, Objs: []lang.ObjID{"x", "y"}, Folded: folded,
		})
	})
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	for site, n := range h.Nodes {
		_, is, _, _ := n.Snapshot()
		if len(is) != 1 {
			t.Fatalf("site %d handled %d installs, want 1", site, len(is))
		}
		if !is[0].Folded.Equal(folded) || is[0].Round != round(1) {
			t.Errorf("site %d install = %+v", site, is[0])
		}
	}
}

// testDistribute checks round 2: each site receives exactly its own
// message, and treaty constraints survive the trip intact.
func testDistribute(t *testing.T, h *Harness) {
	n := len(h.Nodes)
	ms := make([]fabric.InstallTreaties, n)
	for k := 0; k < n; k++ {
		c := treaty.Constraint{Terms: []treaty.Term{
			{Obj: lang.ObjID(fmt.Sprintf("stock_%d", k)), Coeff: 2},
			{Obj: lang.DeltaObj("stock_9", k), Coeff: -1},
		}, Const: int64(-10 * (k + 1)), Op: lia.LE}
		ms[k] = fabric.InstallTreaties{
			Round: round(0), Clock: 5, Site: k,
			Units: []fabric.UnitTreaty{{
				Unit: 4, Version: 2,
				Local: treaty.Local{Site: k, Constraints: []treaty.Constraint{c}},
			}},
		}
	}
	var err error
	h.Exec(func(p rt.Proc) { err = h.Transport.Distribute(p, 0, ms) })
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	for site, node := range h.Nodes {
		_, _, ts, _ := node.Snapshot()
		if len(ts) != 1 {
			t.Fatalf("site %d handled %d treaty installs, want 1", site, len(ts))
		}
		got := ts[0]
		if got.Site != site {
			t.Errorf("site %d received a message addressed to site %d", site, got.Site)
		}
		if len(got.Units) != 1 || got.Units[0].Unit != 4 || got.Units[0].Version != 2 {
			t.Fatalf("site %d unit payload = %+v", site, got.Units)
		}
		want := ms[site].Units[0].Local
		if got.Units[0].Local.String() != want.String() {
			t.Errorf("site %d treaty round-trip:\n got %s\nwant %s", site, got.Units[0].Local, want)
		}
	}
}

// testRejoin checks the recovery handshake: every peer of the rejoining
// site receives the message (the sender itself is skipped), and the
// gathered replies are indexed by site with payloads intact.
func testRejoin(t *testing.T, h *Harness) {
	m := fabric.Rejoin{Site: 1, Clock: 17, Versions: map[int]int64{0: 3, 4: 9}}
	e := h.Transport.(fabric.Elastic)
	var replies []fabric.RejoinReply
	var err error
	h.Exec(func(p rt.Proc) { replies, err = e.Rejoin(p, 1, m) })
	if err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if len(replies) != len(h.Nodes) {
		t.Fatalf("Rejoin returned %d replies, want %d", len(replies), len(h.Nodes))
	}
	for site, n := range h.Nodes {
		n.mu.Lock()
		rs := append([]fabric.Rejoin(nil), n.Rejoins...)
		n.mu.Unlock()
		if site == 1 {
			if len(rs) != 0 {
				t.Errorf("the rejoining site handled its own handshake (%d messages)", len(rs))
			}
			continue
		}
		if len(rs) != 1 {
			t.Fatalf("site %d handled %d rejoins, want 1", site, len(rs))
		}
		got := rs[0]
		if got.Site != 1 || got.Clock != 17 || len(got.Versions) != 2 || got.Versions[0] != 3 || got.Versions[4] != 9 {
			t.Errorf("site %d rejoin payload = %+v", site, got)
		}
		rep := replies[site]
		if want := int64(17 + site + 1); rep.Clock != want {
			t.Errorf("site %d reply clock = %d, want %d", site, rep.Clock, want)
		}
		if len(rep.Units) != 1 {
			t.Fatalf("site %d reply units = %+v", site, rep.Units)
		}
		u := rep.Units[0]
		wantBase := lang.Database{lang.ObjID(fmt.Sprintf("stock_%d", site)): int64(-5 * site)}
		if u.Unit != site || u.Version != int64(10+site) || u.Force != (site%2 == 1) || !u.Base.Equal(wantBase) {
			t.Errorf("site %d reply unit = %+v", site, u)
		}
	}
	if replies[1].Clock != 0 || len(replies[1].Units) != 0 {
		t.Errorf("the rejoiner's own reply slot is non-zero: %+v", replies[1])
	}
}

// testJoin checks the membership handshake: each phase reaches every
// member except the joiner itself, the phase and address survive the
// trip, and the prepare replies carry the partition cut intact.
func testJoin(t *testing.T, h *Harness) {
	e := h.Transport.(fabric.Elastic)
	for _, phase := range []int{fabric.JoinPrepare, fabric.JoinActivate} {
		m := fabric.JoinSite{Round: round(1), Clock: 23, Site: 1, Addr: "http://joiner:7", Phase: phase}
		var replies []fabric.JoinReply
		var err error
		h.Exec(func(p rt.Proc) { replies, err = e.Join(p, 1, m) })
		if err != nil {
			t.Fatalf("Join phase %d: %v", phase, err)
		}
		if len(replies) != len(h.Nodes) {
			t.Fatalf("Join phase %d returned %d replies, want %d", phase, len(replies), len(h.Nodes))
		}
		for site, n := range h.Nodes {
			n.mu.Lock()
			js := append([]fabric.JoinSite(nil), n.Joins...)
			n.mu.Unlock()
			if site == 1 {
				if len(js) != 0 {
					t.Errorf("the joining site handled its own handshake (%d messages)", len(js))
				}
				continue
			}
			// One message per completed phase so far.
			if len(js) != phase {
				t.Fatalf("site %d handled %d joins after phase %d", site, len(js), phase)
			}
			got := js[phase-1]
			if got.Round != round(1) || got.Clock != 23 || got.Site != 1 || got.Addr != "http://joiner:7" || got.Phase != phase {
				t.Errorf("site %d join payload = %+v", site, got)
			}
			rep := replies[site]
			if want := int64(23 + site + 1); rep.Clock != want {
				t.Errorf("site %d reply clock = %d, want %d", site, rep.Clock, want)
			}
			if want := int64(100 + site); rep.Epoch != want {
				t.Errorf("site %d reply epoch = %d, want %d", site, rep.Epoch, want)
			}
			if phase == fabric.JoinPrepare {
				if len(rep.Units) != 1 {
					t.Fatalf("site %d prepare cut = %+v", site, rep.Units)
				}
				u := rep.Units[0]
				wantBase := lang.Database{lang.ObjID(fmt.Sprintf("stock_%d", site)): int64(7 * site)}
				if u.Unit != site || u.Version != int64(20+site) || !u.Base.Equal(wantBase) {
					t.Errorf("site %d cut unit = %+v", site, u)
				}
			} else if len(rep.Units) != 0 {
				t.Errorf("site %d activate reply carries a cut: %+v", site, rep.Units)
			}
		}
		if replies[1].Clock != 0 || replies[1].Epoch != 0 || len(replies[1].Units) != 0 {
			t.Errorf("the joiner's own reply slot is non-zero: %+v", replies[1])
		}
	}
}

// testDrain checks the drain announcement: every member except the
// drained site receives it, and the epoch acks are indexed by site.
func testDrain(t *testing.T, h *Harness) {
	m := fabric.DrainSite{Site: 2, Clock: 31}
	e := h.Transport.(fabric.Elastic)
	var replies []fabric.DrainReply
	var err error
	h.Exec(func(p rt.Proc) { replies, err = e.Drain(p, 2, m) })
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(replies) != len(h.Nodes) {
		t.Fatalf("Drain returned %d replies, want %d", len(replies), len(h.Nodes))
	}
	for site, n := range h.Nodes {
		n.mu.Lock()
		ds := append([]fabric.DrainSite(nil), n.Drains...)
		n.mu.Unlock()
		if site == 2 {
			if len(ds) != 0 {
				t.Errorf("the drained site handled its own announcement (%d messages)", len(ds))
			}
			continue
		}
		if len(ds) != 1 {
			t.Fatalf("site %d handled %d drains, want 1", site, len(ds))
		}
		if ds[0].Site != 2 || ds[0].Clock != 31 {
			t.Errorf("site %d drain payload = %+v", site, ds[0])
		}
		rep := replies[site]
		if rep.Clock != int64(31+site+1) || rep.Epoch != int64(200+site) {
			t.Errorf("site %d drain ack = %+v", site, rep)
		}
	}
	if replies[2].Clock != 0 || replies[2].Epoch != 0 {
		t.Errorf("the drained site's own reply slot is non-zero: %+v", replies[2])
	}
}

// testAbort checks abort delivery to every site.
func testAbort(t *testing.T, h *Harness) {
	var err error
	h.Exec(func(p rt.Proc) {
		err = h.Transport.Abort(p, 0, fabric.AbortRound{Round: round(0), Clock: 3})
	})
	if err != nil {
		t.Fatalf("Abort: %v", err)
	}
	for site, n := range h.Nodes {
		_, _, _, as := n.Snapshot()
		if len(as) != 1 || as[0].Round != round(0) {
			t.Fatalf("site %d aborts = %+v", site, as)
		}
	}
}

// Scribble is a fabric.ScratchHook for tests: it overwrites everything
// reachable from the scratch it is handed — slices over their whole
// capacity, every map value, every string, number and flag — and leaves a
// "scribbled" key in every map keyed by strings. A test that sets it finds
// out whether anything a Node or a coordinator kept was scratch after all,
// and whether a later message picks up what an earlier one left behind.
func Scribble(scratch ...any) {
	for _, v := range scratch {
		scribble(reflect.ValueOf(v))
	}
}

func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Slice:
		for i, all := 0, v.Slice(0, v.Cap()); i < all.Len(); i++ {
			scribble(all.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			return
		}
		junk := reflect.New(v.Type().Elem()).Elem()
		scribble(junk)
		for _, k := range v.MapKeys() {
			v.SetMapIndex(k, junk)
		}
		if v.Type().Key().Kind() == reflect.String {
			v.SetMapIndex(reflect.ValueOf("scribbled").Convert(v.Type().Key()), junk)
		}
	case reflect.String:
		if v.CanSet() {
			v.SetString("scribbled")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.CanSet() {
			v.SetInt(-77)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.CanSet() {
			v.SetUint(0xAA)
		}
	case reflect.Bool:
		if v.CanSet() {
			v.SetBool(true)
		}
	}
}
