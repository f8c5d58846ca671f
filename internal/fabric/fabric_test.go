package fabric_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/homeo/wire"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/fabric/codec"
	"repro/internal/fabric/fabrictest"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/sim"
)

// TestLocalConformance runs the transport conformance suite against the
// in-process transport on the deterministic simulator.
func TestLocalConformance(t *testing.T) {
	fabrictest.Run(t, func(t *testing.T, n int) *fabrictest.Harness {
		eng := sim.NewEngine(1)
		nodes := make([]*fabrictest.StubNode, n)
		fnodes := make([]fabric.Node, n)
		for k := range nodes {
			nodes[k] = &fabrictest.StubNode{Site: k}
			fnodes[k] = nodes[k]
		}
		tr := fabric.NewLocal(cluster.Uniform(n, 50*rt.Millisecond), fnodes)
		return &fabrictest.Harness{
			Transport: tr,
			Nodes:     nodes,
			Exec: func(fn func(p rt.Proc)) {
				eng.Spawn(0, fn)
				eng.Run()
			},
		}
	})
}

// TestHTTPConformance runs the conformance suite against the
// multi-process transport: site 0 is local, every other site is a real
// HTTP server mounting the peer handler — so the whole round trip,
// codec included, is exercised.
func TestHTTPConformance(t *testing.T) {
	fabrictest.Run(t, func(t *testing.T, n int) *fabrictest.Harness {
		live := rtlive.New(1)
		nodes := make([]*fabrictest.StubNode, n)
		peers := make([]string, n)
		for k := range nodes {
			nodes[k] = &fabrictest.StubNode{Site: k}
		}
		for k := 1; k < n; k++ {
			srv := httptest.NewServer(fabric.NewPeerHandler(nodes[k], nil, ""))
			t.Cleanup(srv.Close)
			peers[k] = srv.URL
		}
		peers[0] = "http://invalid.localhost:0" // self: never dialed
		tr := fabric.NewHTTP(live, 0, peers, nodes[0], nil)
		return &fabrictest.Harness{
			Transport: tr,
			Nodes:     nodes,
			Exec:      func(fn func(p rt.Proc)) { exec(t, live, fn) },
		}
	})
}

// chargeNode answers collects with empty values (latency test only).
type chargeNode struct{}

func (chargeNode) CollectState(fabric.CollectState) (fabric.StateReply, error) {
	return fabric.StateReply{Values: lang.Database{}}, nil
}
func (chargeNode) InstallState(fabric.InstallState) error       { return nil }
func (chargeNode) InstallTreaties(fabric.InstallTreaties) error { return nil }
func (chargeNode) AbortRound(fabric.AbortRound) error           { return nil }
func (chargeNode) Rejoin(fabric.Rejoin) (fabric.RejoinReply, error) {
	return fabric.RejoinReply{}, nil
}
func (chargeNode) JoinSite(fabric.JoinSite) (fabric.JoinReply, error) {
	return fabric.JoinReply{}, nil
}
func (chargeNode) DrainSite(fabric.DrainSite) (fabric.DrainReply, error) {
	return fabric.DrainReply{}, nil
}

// TestLocalLatencyMatchesTopology pins the Local transport's virtual-time
// charges — the property the experiment goldens depend on: Collect and
// Distribute each cost exactly the coordinator's worst pairwise round
// trip (RoundLatency == MaxRTTFrom), and Install costs nothing.
func TestLocalLatencyMatchesTopology(t *testing.T) {
	topo := cluster.EC2(3) // asymmetric RTTs: UE, UW, IE
	for from := 0; from < 3; from++ {
		eng := sim.NewEngine(1)
		nodes := []fabric.Node{chargeNode{}, chargeNode{}, chargeNode{}}
		tr := fabric.NewLocal(topo, nodes)
		var collect, install, distribute rt.Duration
		eng.Spawn(0, func(p rt.Proc) {
			start := p.Now()
			if _, err := tr.Collect(p, from, func() fabric.CollectState {
				return fabric.CollectState{Objs: []lang.ObjID{"x"}}
			}); err != nil {
				t.Errorf("Collect: %v", err)
			}
			collect = rt.Duration(p.Now() - start)
			start = p.Now()
			tr.Install(p, from, fabric.InstallState{})
			install = rt.Duration(p.Now() - start)
			start = p.Now()
			tr.Distribute(p, from, make([]fabric.InstallTreaties, 3))
			distribute = rt.Duration(p.Now() - start)
		})
		eng.Run()
		want := topo.MaxRTTFrom(from)
		if topo.RoundLatency(from) != want {
			t.Fatalf("RoundLatency(%d) = %v, want MaxRTTFrom = %v", from, topo.RoundLatency(from), want)
		}
		if collect != want {
			t.Errorf("from %d: Collect charged %v, want %v", from, collect, want)
		}
		if install != 0 {
			t.Errorf("from %d: Install charged %v, want 0", from, install)
		}
		if distribute != want {
			t.Errorf("from %d: Distribute charged %v, want %v", from, distribute, want)
		}
	}
}

// TestPeerTokenAuth: with a token configured, peer mutations without the
// shared secret are refused before touching the node, and a transport
// carrying the right token passes.
func TestPeerTokenAuth(t *testing.T) {
	live := rtlive.New(1)
	good := &fabrictest.StubNode{Site: 1}
	srv := httptest.NewServer(fabric.NewPeerHandler(good, nil, "s3cret"))
	defer srv.Close()

	// Raw POST without the token: 401, node untouched.
	install := mustEncode(t, &wire.PeerInstallState{From: 0, Round: 1, Objs: []string{"x"}, Folded: map[string]int64{"x": 999}})
	if status, e := postPeer(t, srv.URL+"/v1/peer/install-state", codec.ContentType, bytes.NewReader(install)); status != http.StatusUnauthorized {
		t.Fatalf("tokenless install-state = %d %+v, want 401", status, e)
	}

	self := &fabrictest.StubNode{Site: 0}
	peers := []string{"http://unused.invalid", srv.URL}
	tr := fabric.NewHTTP(live, 0, peers, self, nil)

	// Wrong token: refused with the failure attributed to the peer.
	tr.SetToken("wrong")
	var werr error
	exec(t, live, func(p rt.Proc) {
		werr = tr.Install(p, 0, fabric.InstallState{Round: fabric.RoundID{Site: 0, Seq: 1}})
	})
	if werr == nil {
		t.Fatal("wrong token accepted")
	}

	// Right token: delivered.
	tr.SetToken("s3cret")
	var gerr error
	exec(t, live, func(p rt.Proc) {
		gerr = tr.Install(p, 0, fabric.InstallState{Round: fabric.RoundID{Site: 0, Seq: 2}})
	})
	if gerr != nil {
		t.Fatalf("right token refused: %v", gerr)
	}
	if _, is, _, _ := good.Snapshot(); len(is) != 1 {
		t.Fatalf("peer node handled %d installs, want exactly 1 (the authorized one)", len(is))
	}
}

// exec runs fn on a fresh process of the live runtime and waits.
func exec(t *testing.T, live *rtlive.Runtime, fn func(p rt.Proc)) {
	t.Helper()
	done := make(chan struct{})
	live.Spawn(0, func(p rt.Proc) {
		defer close(done)
		fn(p)
	})
	<-done
}
