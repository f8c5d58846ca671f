package fabric

import (
	"repro/internal/cluster"
	"repro/internal/rt"
)

// Local is the in-process transport: every site's Node lives in the same
// process and messages are direct calls. Communication latency is charged
// per message from the cluster topology: a round's cost is the slowest
// peer's round trip from the coordinating site, which is exactly the
// paper's model of the cleanup phase's two communication rounds (and
// byte-identical, on the simulator, to the seed implementation's
// lump-sum MaxRTTFrom sleep).
//
// Handlers run at the round's completion point: under the paper's
// all-to-all state broadcast, every site holds the round's consolidated
// view when the slowest message lands, and the simulator's execution
// contract makes the whole exchange atomic in virtual time at that
// instant.
type Local struct {
	topo  *cluster.Topology
	nodes []Node
	gone  []bool
}

// NewLocal builds the in-process transport over the topology's sites.
// nodes[k] is site k's actor.
func NewLocal(topo *cluster.Topology, nodes []Node) *Local {
	if len(nodes) != topo.NSites() {
		panic("fabric: NewLocal needs one node per topology site")
	}
	return &Local{topo: topo, nodes: nodes, gone: make([]bool, len(nodes))}
}

// NSites reports the cluster width.
func (l *Local) NSites() int { return len(l.nodes) }

// AddSite grows the transport by one site: the node becomes the next
// index's actor (addr is unused in-process). The shared topology must
// already cover the new width.
func (l *Local) AddSite(addr string, node Node) {
	_ = addr
	l.nodes = append(l.nodes, node)
	l.gone = append(l.gone, false)
}

// MarkGone excludes a drained site from future scatters; its reply slots
// stay present and zero.
func (l *Local) MarkGone(site int) {
	if site >= 0 && site < len(l.gone) {
		l.gone[site] = true
	}
}

// Collect charges the round's communication latency, then delivers the
// materialized message to every site and gathers the replies.
func (l *Local) Collect(p rt.Proc, from int, mkMsg func() CollectState) ([]StateReply, error) {
	p.Sleep(l.topo.RoundLatency(from))
	m := mkMsg()
	replies := make([]StateReply, len(l.nodes))
	for k, n := range l.nodes {
		if l.gone[k] {
			continue
		}
		rep, err := n.CollectState(m)
		if err != nil {
			return nil, &SiteError{Site: k, Err: err}
		}
		replies[k] = rep
	}
	return replies, nil
}

// Install delivers the folded state everywhere. No additional latency is
// charged: the state travels with round 1 (see Transport.Install).
func (l *Local) Install(p rt.Proc, from int, m InstallState) error {
	for k, n := range l.nodes {
		if l.gone[k] {
			continue
		}
		if err := n.InstallState(m); err != nil {
			return &SiteError{Site: k, Err: err}
		}
	}
	return nil
}

// Distribute delivers each site its treaties, then charges the round's
// communication latency. Treaties take effect at round start — the
// seed's model, which the experiment goldens pin down — while the round
// trip (message out, acks back) is paid in full before the coordinator
// releases the units.
func (l *Local) Distribute(p rt.Proc, from int, ms []InstallTreaties) error {
	var firstErr error
	for k, n := range l.nodes {
		if l.gone[k] {
			continue
		}
		if err := n.InstallTreaties(ms[k]); err != nil && firstErr == nil {
			firstErr = &SiteError{Site: k, Err: err}
		}
	}
	p.Sleep(l.topo.RoundLatency(from))
	return firstErr
}

// Rejoin delivers the recovery handshake to every other site and charges
// one communication round (in-process this only runs in tests — a crash
// cannot take down a single site of a one-process cluster).
func (l *Local) Rejoin(p rt.Proc, from int, m Rejoin) ([]RejoinReply, error) {
	p.Sleep(l.topo.RoundLatency(from))
	replies := make([]RejoinReply, len(l.nodes))
	for k, n := range l.nodes {
		if k == from || l.gone[k] {
			continue
		}
		rep, err := n.Rejoin(m)
		if err != nil {
			return nil, &SiteError{Site: k, Err: err}
		}
		replies[k] = rep
	}
	return replies, nil
}

// Join delivers a join-handshake phase to every member except the
// joining site and gathers the replies. One communication round is
// charged per phase. During the prepare phase the joiner is not yet in
// the topology (it is admitted on activate), so an out-of-range sender
// is modeled at the cluster's edge: the worst round trip any member
// pays.
func (l *Local) Join(p rt.Proc, from int, m JoinSite) ([]JoinReply, error) {
	if from < l.topo.NSites() {
		p.Sleep(l.topo.RoundLatency(from))
	} else {
		var worst rt.Duration
		for k := 0; k < l.topo.NSites(); k++ {
			if d := l.topo.RoundLatency(k); d > worst {
				worst = d
			}
		}
		p.Sleep(worst)
	}
	replies := make([]JoinReply, len(l.nodes))
	for k, n := range l.nodes {
		if k == from || l.gone[k] {
			continue
		}
		rep, err := n.JoinSite(m)
		if err != nil {
			return nil, &SiteError{Site: k, Err: err}
		}
		replies[k] = rep
	}
	return replies, nil
}

// Drain announces the drained site to every other member and gathers the
// acks, charging one communication round.
func (l *Local) Drain(p rt.Proc, from int, m DrainSite) ([]DrainReply, error) {
	p.Sleep(l.topo.RoundLatency(from))
	replies := make([]DrainReply, len(l.nodes))
	for k, n := range l.nodes {
		if k == from || l.gone[k] {
			continue
		}
		rep, err := n.DrainSite(m)
		if err != nil {
			return nil, &SiteError{Site: k, Err: err}
		}
		replies[k] = rep
	}
	return replies, nil
}

// Abort releases the round everywhere. In-process rounds only abort on a
// coordinator bug (the Local transport cannot fail mid-round), so no
// latency is modeled.
func (l *Local) Abort(p rt.Proc, from int, m AbortRound) error {
	var firstErr error
	for k, n := range l.nodes {
		if l.gone[k] {
			continue
		}
		if err := n.AbortRound(m); err != nil && firstErr == nil {
			firstErr = &SiteError{Site: k, Err: err}
		}
	}
	return firstErr
}

// compile-time conformance
var _ Transport = (*Local)(nil)
