package fabric_test

import (
	"net/http/httptest"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/treaty"
)

// BenchmarkNegotiationRoundTrip measures one full cleanup-phase exchange
// over fabric.HTTP on loopback: round 1 (CollectState scatter/gather +
// InstallState close) and round 2 (InstallTreaties distribute). Site 0
// is local, site 1 a real HTTP server, so every message pays the whole
// encode → socket → decode → handle → encode → decode trip.
func BenchmarkNegotiationRoundTrip(b *testing.B) {
	live := rtlive.New(1)
	nodes := []*fabrictest.StubNode{{Site: 0}, {Site: 1}}
	srv := httptest.NewServer(fabric.NewPeerHandler(nodes[1], nil, ""))
	defer srv.Close()
	peers := []string{"http://invalid.localhost:0", srv.URL}
	tr := fabric.NewHTTP(live, 0, peers, nodes[0], nil)

	objs := []lang.ObjID{"stock_1", "stock_2", "stock_3"}
	rid := fabric.RoundID{Site: 0, Seq: 1}
	collect := func() fabric.CollectState {
		return fabric.CollectState{Round: rid, Clock: 10, Units: []int{0}, Objs: objs}
	}
	install := fabric.InstallState{
		Round: rid, Clock: 12, Objs: objs,
		Folded: lang.Database{"stock_1": 40, "stock_2": 41, "stock_3": 42},
		Winner: &fabric.WinnerCommit{Class: "Order", Args: []int64{1}, Site: 0, Units: []int{0}},
	}
	ms := make([]fabric.InstallTreaties, 2)
	for k := range ms {
		c := treaty.Constraint{Terms: []treaty.Term{
			{Obj: objs[0], Coeff: 1}, {Obj: lang.DeltaObj(objs[0], k), Coeff: 1},
		}, Const: -20, Op: lia.LE}
		ms[k] = fabric.InstallTreaties{
			Round: rid, Clock: 14, Site: k,
			Units: []fabric.UnitTreaty{{
				Unit: 0, Version: 2,
				Local: treaty.Local{Site: k, Constraints: []treaty.Constraint{c}},
			}},
		}
	}

	roundTrip := func(p rt.Proc) error {
		if _, err := tr.Collect(p, 0, collect); err != nil {
			return err
		}
		if err := tr.Install(p, 0, install); err != nil {
			return err
		}
		return tr.Distribute(p, 0, ms)
	}

	var benchErr error
	done := make(chan struct{})
	live.Spawn(0, func(p rt.Proc) {
		defer close(done)
		for i := 0; i < 16; i++ {
			if err := roundTrip(p); err != nil {
				benchErr = err
				return
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := roundTrip(p); err != nil {
				benchErr = err
				return
			}
		}
	})
	<-done
	live.Drain()
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}
