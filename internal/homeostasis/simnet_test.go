package homeostasis

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simAddr is site k's address on a test's fabric.SimNet.
func simAddr(k int) string { return fmt.Sprintf("sim://site-%d", k) }

// simCluster is a multi-process cluster on one simulator: every System
// owns one site and reaches the others over fabric.Sim, seeded and in
// virtual time.
type simCluster struct {
	t    testing.TB
	eng  *sim.Engine
	net  *fabric.SimNet
	rtt  rt.Duration
	opts Options
	// mk builds one process's workload; every process builds the same.
	mk func(width int) workload.Workload
}

// newSimCluster builds the simulator and the net, no System on it yet. The
// net's topology grows with the sites that appear (cluster.Topology.Grow
// copies a uniform one exactly).
func newSimCluster(t testing.TB, rtt rt.Duration, opts Options, mk func(width int) workload.Workload) *simCluster {
	eng := sim.NewEngine(opts.Seed)
	return &simCluster{t: t, eng: eng, net: fabric.NewSimNet(eng, cluster.Uniform(2, rtt)), rtt: rtt, opts: opts, mk: mk}
}

// bootAll boots and attaches width Systems, sites 0..width-1.
func (c *simCluster) bootAll(width int) []*System {
	c.t.Helper()
	systems := make([]*System, width)
	for k := range systems {
		systems[k] = c.boot(k, width)
		c.attach(systems[k])
	}
	return systems
}

// boot builds the System that owns site of a width-site cluster, with its
// own topology as a process has, not yet on the net.
func (c *simCluster) boot(site, width int) *System {
	c.t.Helper()
	opts := c.opts
	opts.Topo = cluster.Uniform(width, c.rtt)
	sys, err := New(c.eng, c.mk(width), opts)
	if err != nil {
		c.t.Fatal(err)
	}
	addrs := make([]string, width)
	for k := range addrs {
		addrs[k] = simAddr(k)
	}
	sys.SetFabric(c.net.Transport(site, addrs, sys.Node(site)), site)
	sys.SetSiteAddrs(addrs)
	return sys
}

// attach puts sys's site on the net.
func (c *simCluster) attach(sys *System) { c.net.Attach(sys.elastic.(fabric.Sim)) }
