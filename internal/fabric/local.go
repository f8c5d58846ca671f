package fabric

import (
	"repro/internal/cluster"
	"repro/internal/rt"
)

// Local is the in-process transport of a System that holds every site:
// each site's Node lives in the same process and messages are direct calls.
// Communication latency is charged per message from the cluster topology: a
// round's cost is the slowest peer's round trip from the coordinating site,
// which is exactly the paper's model of the cleanup phase's two
// communication rounds (and byte-identical, on the simulator, to the seed
// implementation's lump-sum MaxRTTFrom sleep).
//
// Handlers run at the round's completion point: under the paper's
// all-to-all state broadcast, every site holds the round's consolidated
// view when the slowest message lands, and the simulator's execution
// contract makes the whole exchange atomic in virtual time at that
// instant.
type Local struct {
	topo  *cluster.Topology
	nodes []Node
}

// NewLocal builds the in-process transport over the topology's sites.
// nodes[k] is site k's actor.
func NewLocal(topo *cluster.Topology, nodes []Node) *Local {
	if len(nodes) != topo.NSites() {
		panic("fabric: NewLocal needs one node per topology site")
	}
	return &Local{topo: topo, nodes: nodes}
}

// Collect charges the round's communication latency, then delivers the
// materialized message to every site and gathers the replies.
func (l *Local) Collect(p rt.Proc, from int, mkMsg func() CollectState) ([]StateReply, error) {
	p.Sleep(l.topo.RoundLatency(from))
	m := mkMsg()
	replies := make([]StateReply, len(l.nodes))
	for k, n := range l.nodes {
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
		if err := n.InstallTreaties(ms[k]); err != nil && firstErr == nil {
			firstErr = &SiteError{Site: k, Err: err}
		}
	}
	p.Sleep(l.topo.RoundLatency(from))
	return firstErr
}

// Abort releases the round everywhere. In-process rounds only abort on a
// coordinator bug (the Local transport cannot fail mid-round), so no
// latency is modeled.
func (l *Local) Abort(p rt.Proc, from int, m AbortRound) error {
	var firstErr error
	for k, n := range l.nodes {
		if err := n.AbortRound(m); err != nil && firstErr == nil {
			firstErr = &SiteError{Site: k, Err: err}
		}
	}
	return firstErr
}

// compile-time conformance
var _ Transport = (*Local)(nil)
