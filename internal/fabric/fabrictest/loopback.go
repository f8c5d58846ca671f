package fabrictest

import (
	"net/http/httptest"
	"testing"

	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/treaty"
)

// Loopback is the smallest cluster that pays for every step of a round
// over fabric.HTTP, for measuring one: site 0 is local to the transport,
// site 1 a real HTTP server on loopback mounting the peer handler, both
// stubs, so every message pays the whole encode → socket → decode → handle
// → encode → decode trip and nothing of an engine.
type Loopback struct {
	Live      *rtlive.Runtime
	Transport *fabric.HTTP
	Nodes     [2]*StubNode

	collect func() fabric.CollectState
	install fabric.InstallState
	ms      []fabric.InstallTreaties
}

// NewLoopback builds the cluster and the messages of its round: three
// objects of one unit, a winner, one two-term constraint per site. The
// server closes with the test.
func NewLoopback(tb testing.TB) *Loopback {
	l := &Loopback{Live: rtlive.New(1), Nodes: [2]*StubNode{{Site: 0}, {Site: 1}}}
	srv := httptest.NewServer(fabric.NewPeerHandler(l.Nodes[1], nil, ""))
	tb.Cleanup(srv.Close)
	peers := []string{"http://invalid.localhost:0", srv.URL}
	l.Transport = fabric.NewHTTP(l.Live, 0, peers, l.Nodes[0], nil)

	objs := []lang.ObjID{"stock_1", "stock_2", "stock_3"}
	rid := fabric.RoundID{Site: 0, Seq: 1}
	l.collect = func() fabric.CollectState {
		return fabric.CollectState{Round: rid, Clock: 10, Units: []int{0}, Objs: objs}
	}
	l.install = fabric.InstallState{
		Round: rid, Clock: 12, Objs: objs,
		Folded: lang.Database{"stock_1": 40, "stock_2": 41, "stock_3": 42},
		Winner: &fabric.WinnerCommit{Class: "Order", Args: []int64{1}, Site: 0, Units: []int{0}},
	}
	l.ms = make([]fabric.InstallTreaties, 2)
	for k := range l.ms {
		c := treaty.Constraint{Terms: []treaty.Term{
			{Obj: objs[0], Coeff: 1}, {Obj: lang.DeltaObj(objs[0], k), Coeff: 1},
		}, Const: -20, Op: lia.LE}
		l.ms[k] = fabric.InstallTreaties{
			Round: rid, Clock: 14, Site: k,
			Units: []fabric.UnitTreaty{{
				Unit: 0, Version: 2,
				Local: treaty.Local{Site: k, Constraints: []treaty.Constraint{c}},
			}},
		}
	}
	return l
}

// Round is one full cleanup-phase exchange: round 1 (CollectState
// scatter/gather + InstallState close) and round 2 (InstallTreaties
// distribute). Call it from a process of l.Live.
func (l *Loopback) Round(p rt.Proc) error {
	if _, err := l.Transport.Collect(p, 0, l.collect); err != nil {
		return err
	}
	if err := l.Transport.Install(p, 0, l.install); err != nil {
		return err
	}
	return l.Transport.Distribute(p, 0, l.ms)
}
