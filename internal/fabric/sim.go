package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro/internal/cluster"
	"repro/internal/rt"
)

// Sim is the transport of one System of a cluster whose Systems share one
// simulator, each owning one site as a process over HTTP does. It is HTTP
// itself — the same endpoint table, codec, pooled calls, peer handler and
// refusals — with each message carried by a SimNet on the simulator's clock
// instead of posted over a socket: the request reaches the peer's handler at
// now + OneWay(from, to), its answer is back OneWay(to, from) later, and
// the coordinator stays parked until the last answer is in.
//
// Sim is for seeded, virtual-time tests of what runs over HTTP — joins,
// drains, failover, recovery and rejoin, a System's crash among live ones.
// No deployment and none of the experiment reports runs on it.
type Sim struct{ *HTTP }

var _ Elastic = Sim{}

// SimNet is what the Sim transports of one simulated cluster share: the
// runtime whose clock carries messages, the topology they pay, and the peer
// handler of every System attached, by address.
type SimNet struct {
	rt     rt.Runtime
	topo   *cluster.Topology
	at     map[string]http.Handler
	killed map[*HTTP]bool
}

// NewSimNet builds a net on the runtime (the simulator) over topo, which
// the net then owns: a site past its width, a joiner, grows it.
func NewSimNet(r rt.Runtime, topo *cluster.Topology) *SimNet {
	return &SimNet{rt: r, topo: topo, at: make(map[string]http.Handler), killed: make(map[*HTTP]bool)}
}

// Transport builds the transport of the System that owns site self:
// peers[k] is site k's address, peers[self] its own, and node its Node. It
// can send at once and answers once attached.
func (n *SimNet) Transport(self int, peers []string, node Node) Sim {
	t := NewHTTP(n.rt, self, peers, node, nil)
	t.net = n
	return Sim{t}
}

// Attach makes t's System answer at its address, as a process that opens
// its listener does, in place of whatever answered there. Its handler runs
// on the simulator's callbacks, which hold the execution right.
func (n *SimNet) Attach(t Sim) {
	n.at[(*t.ps.Load())[t.self].addr] = NewPeerHandler(t.node, nil, "")
	n.killed[t.HTTP] = false
}

// Detach kills the System at addr: deliveries to it are refused as a
// connection to a dead process is, and it sends nothing more.
func (n *SimNet) Detach(addr string) {
	for t := range n.killed {
		if (*t.ps.Load())[t.self].addr == addr {
			n.killed[t] = true
		}
	}
	delete(n.at, addr)
}

// errKilled is what a message from a System taken off the net fails with.
var errKilled = errors.New("fabric: the sending System was taken off the net")

// carry takes the place of a call's POST: the request is served at the
// peer one link's latency from now, and the answer read back after the
// return link's.
func (n *SimNet) carry(c *call) {
	from, to := c.t.self, c.site
	n.rt.At(n.rt.Now()+n.oneWay(from, to), func() {
		resp, err := n.serve(c)
		n.rt.At(n.rt.Now()+n.oneWay(to, from), func() {
			if err == nil {
				err = c.read(resp)
			}
			c.err = err
			c.land()
		})
	})
}

// serve answers a call with the handler attached at its peer's address.
func (n *SimNet) serve(c *call) (*http.Response, error) {
	c.t.Messages.Add(1)
	h := n.at[c.peer.addr]
	switch {
	case n.killed[c.t]:
		return nil, errKilled
	case h == nil:
		return nil, fmt.Errorf("peer %s at %s: connection refused", endpointNames[c.ep], c.peer.addr)
	}
	req := httptest.NewRequest(http.MethodPost, c.peer.urls[c.ep].String(), bytes.NewReader(c.Payload))
	req.Header = c.hdr
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	c.Status = resp.StatusCode
	return resp, nil
}

// oneWay is the latency from site a to site b.
func (n *SimNet) oneWay(a, b int) rt.Time {
	for max(a, b) >= n.topo.NSites() {
		n.topo.Grow()
	}
	return rt.Time(n.topo.OneWay(a, b))
}
