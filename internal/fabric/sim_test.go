package fabric_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/sim"
)

// clockNode is a stub that notes when each collect reached it.
type clockNode struct {
	*fabrictest.StubNode
	eng *sim.Engine
	at  []rt.Time
}

func (n *clockNode) CollectState(m fabric.CollectState) (fabric.StateReply, error) {
	n.at = append(n.at, n.eng.Now())
	return n.StubNode.CollectState(m)
}

// TestSimChargesEachLinkAndRefusesTheDead: on the paper's EC2 topology,
// whose links differ, a collect coordinated by site 1 reaches each peer
// after that link's one-way latency — as bytes, not as the sender's values
// — and resumes the coordinator when the slowest answer is back, at
// max_k(OneWay(1,k) + OneWay(k,1)). A System taken off the net surfaces as
// a *fabric.SiteError naming its site after the same wait, and a System
// taken off sends nothing at all.
func TestSimChargesEachLinkAndRefusesTheDead(t *testing.T) {
	topo := cluster.EC2(3)
	eng := sim.NewEngine(1)
	net, addrs := simNet(eng, cluster.EC2(3))
	nodes := make([]*clockNode, 3)
	var tr fabric.Sim
	for k := range nodes {
		nodes[k] = &clockNode{StubNode: &fabrictest.StubNode{Site: k}, eng: eng}
		sk := net.Transport(k, addrs, nodes[k])
		net.Attach(sk)
		if k == 1 {
			tr = sk
		}
	}
	objs := []lang.ObjID{"stock_1", "x"}
	collect := func() (rt.Duration, error) {
		var took rt.Duration
		var err error
		eng.Spawn(0, func(p rt.Proc) {
			start := p.Now()
			_, err = tr.Collect(p, 1, func() fabric.CollectState { return fabric.CollectState{Objs: objs} })
			took = rt.Duration(p.Now() - start)
		})
		eng.Run()
		return took, err
	}

	took, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	var want rt.Duration
	for k := range nodes {
		if k != 1 {
			want = max(want, topo.OneWay(1, k)+topo.OneWay(k, 1))
		}
	}
	if took != want || want != 170*rt.Millisecond {
		t.Errorf("the coordinator resumed after %v, want %v (the slowest link there and back)", took, want)
	}
	for k, n := range nodes {
		if len(n.at) != 1 || rt.Duration(n.at[0]) != topo.OneWay(1, k) {
			t.Errorf("site %d handled the collect at %v, want %v after the send", k, n.at, topo.OneWay(1, k))
		}
	}
	cs, _, _, _ := nodes[2].Snapshot()
	if &cs[0].Objs[0] == &objs[0] {
		t.Error("a peer was handed the sender's footprint, not one decoded from the bytes")
	}

	net.Detach(addrs[2])
	took, err = collect()
	var se *fabric.SiteError
	if !errors.As(err, &se) || se.Site != 2 || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("collect with site 2 off the net: %v, want a refusal attributed to site 2", err)
	}
	if took != want {
		t.Errorf("the refusal came back after %v, want %v", took, want)
	}

	net.Detach(addrs[1])
	if _, err := collect(); err == nil || !strings.Contains(err.Error(), "taken off the net") {
		t.Fatalf("collect from a System taken off the net: %v, want its messages refused", err)
	}
	if len(nodes[0].at) != 2 {
		t.Errorf("site 0 handled %d collects, want 2: the dead coordinator sent nothing", len(nodes[0].at))
	}
}
