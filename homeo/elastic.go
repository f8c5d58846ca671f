package homeo

import (
	"fmt"

	"repro/internal/rt"
)

// This file is the public surface of the elastic-topology layer: online
// site join and drain. The orchestrations live in internal/homeostasis
// (JoinCluster, Drain); the Cluster methods here give them a process to
// park on and keep the session layer's topology snapshot fresh.

// topoView is an immutable snapshot of the membership the submission hot
// path reads lock-free: round-robin site selection must skip drained
// sites without taking the scheduler lock per request. It is refreshed
// after every membership operation this process initiates (in a
// multi-process cluster each process runs its own operations, so the
// local view is always current for local routing decisions).
type topoView struct {
	width  int
	active []bool
	// sessions[k] is the session pinned to site k (see SessionAt).
	sessions []*Session
}

// refreshTopo snapshots the membership under the cluster lock and
// publishes it for lock-free readers.
func (c *Cluster) refreshTopo() {
	v := &topoView{}
	c.locked(func() {
		v.width = c.sys.NSites()
		v.active = make([]bool, v.width)
		for k := 0; k < v.width; k++ {
			v.active[k] = c.sys.SiteActive(k)
		}
	})
	v.sessions = make([]*Session, v.width)
	for k := range v.sessions {
		v.sessions[k] = &Session{c: c, site: k}
	}
	c.topo.Store(v)
}

// topoSnapshot returns the current topology view, building one on first
// use.
func (c *Cluster) topoSnapshot() *topoView {
	if v := c.topo.Load(); v != nil {
		return v
	}
	c.refreshTopo()
	return c.topo.Load()
}

// runProc runs fn on a process of the cluster's runtime and waits for it
// to finish (membership orchestrations park on peer replies and round
// machinery, so they need process context — the same pattern as
// Recover's rejoin handshake).
func (c *Cluster) runProc(op string, fn func(p rt.Proc) error) error {
	var ferr error
	done := make(chan struct{})
	body := func(p rt.Proc) {
		defer close(done)
		ferr = fn(p)
	}
	if c.sim != nil {
		c.mu.Lock()
		c.sim.SetDeadline(0)
		c.sim.Spawn(int(c.nextID.Add(1)), body)
		c.sim.Run()
		c.mu.Unlock()
	} else if !c.live.SpawnOK(int(c.nextID.Add(1)), body) {
		return fmt.Errorf("%w: cluster is draining", ErrDropped)
	} else {
		<-done
	}
	select {
	case <-done:
	default:
		return fmt.Errorf("homeo: %s parked with no pending event", op)
	}
	return ferr
}

// Join admits a new site into the running cluster's membership via the
// two-phase join handshake (quiesce + consistent partition cut, then
// activate) and returns the new site's index.
//
// On an in-process cluster the call grows this cluster by one fresh
// site. On a multi-process cluster the call must be made by the joining
// process itself (booted at width n+1 owning site n, its peer list
// naming the existing sites): addr is the joiner's advertised peer base
// URL, announced to every peer during the handshake. Peers include the
// new site in treaty configurations from their next synchronization
// round on.
func (c *Cluster) Join(addr string) (int, error) {
	var joiner int
	err := c.runProc("join handshake", func(p rt.Proc) error {
		var jerr error
		joiner, jerr = c.sys.JoinCluster(p, addr)
		return jerr
	})
	if err != nil {
		return 0, err
	}
	c.refreshTopo()
	return joiner, nil
}

// Drain removes a site from the active membership: the site is fenced
// (new submissions refused with ErrSiteGone), every treaty unit's deltas
// at the site are absorbed into the replicated base through
// winnerless synchronization rounds, and the membership epoch advances
// at every peer. The site keeps its index — slots are never reused, so
// per-site state and the merged commit log stay stably indexed.
//
// On a multi-process cluster only the process owning the site can drain
// it (the absorb rounds need its local state).
func (c *Cluster) Drain(site int) error {
	err := c.runProc("drain", func(p rt.Proc) error {
		return c.sys.Drain(p, site)
	})
	if err != nil {
		return err
	}
	c.refreshTopo()
	return nil
}

// MarkSiteGone fences a membership slot that was already drained before
// this process booted: a joiner admitted into a cluster whose topology
// snapshot lists gone sites must exclude those slots from routing and
// scatters even though it never witnessed the drain. No-op for active
// processes that observed the drain themselves.
func (c *Cluster) MarkSiteGone(site int) {
	c.locked(func() { c.sys.MarkSiteGone(site) })
	c.refreshTopo()
}

// TopologyEpoch reports this process's membership epoch: a monotonic
// counter bumped on every membership change it observes. Clients use a
// bump as a cue to refresh their site list; epochs are per-process
// observations, not a consensus value.
func (c *Cluster) TopologyEpoch() (epoch int64) {
	c.locked(func() { epoch = c.sys.Epoch() })
	return epoch
}

// SiteStatuses reports every membership slot's status ("active",
// "draining", "gone"), indexed by site.
func (c *Cluster) SiteStatuses() []string {
	var out []string
	c.locked(func() {
		n := c.sys.NSites()
		out = make([]string, n)
		for k := 0; k < n; k++ {
			out[k] = c.sys.SiteStatusName(k)
		}
	})
	return out
}

// SiteAddrs reports the known per-site peer base URLs ("" for
// in-process sites), indexed by site.
func (c *Cluster) SiteAddrs() []string {
	var out []string
	c.locked(func() { out = c.sys.SiteAddrs() })
	return out
}
