package homeo

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// SimFabric runs the processes of a multi-process cluster as Clusters on
// one simulator: each owns one site (Options.Fabric) and reaches the
// others over fabric.Sim, as it would over fabric.HTTP between processes —
// seeded, and in virtual time.
type SimFabric struct {
	Eng  *sim.Engine
	net  *fabric.SimNet
	opts Options
	sims map[*Cluster]fabric.Sim
}

// NewSimFabric builds the simulator and the net for clusters configured by
// opts; the fabric sets their Runtime, Sites, Topology and Fabric.
func NewSimFabric(opts Options) *SimFabric {
	if opts.RTT == 0 {
		opts.RTT = 50 * time.Millisecond
	}
	eng := sim.NewEngine(opts.Seed)
	return &SimFabric{Eng: eng, net: fabric.NewSimNet(eng, Uniform(2, opts.RTT)), opts: opts, sims: make(map[*Cluster]fabric.Sim)}
}

// SimAddr is site k's address on a SimFabric.
func SimAddr(k int) string { return fmt.Sprintf("sim://site-%d", k) }

// Boot builds the Cluster that owns site of a width-site cluster, whose
// peers are the first width addresses. It is not on the net yet: Attach it
// once it can serve, as a process opens its listener.
func (f *SimFabric) Boot(site, width int) (*Cluster, error) {
	opts := f.opts
	opts.Runtime, opts.Sites, opts.Topology = RuntimeSim, width, nil
	opts.Fabric = &FabricOptions{Site: site}
	for k := 0; k < width; k++ {
		opts.Fabric.Peers = append(opts.Fabric.Peers, SimAddr(k))
	}
	var tr fabric.Sim
	c, err := boot(opts, f.Eng, func(c *Cluster, fo *FabricOptions) fabric.Elastic {
		tr = f.net.Transport(fo.Site, fo.Peers, c.sys.Node(fo.Site))
		return tr
	})
	if err == nil {
		f.sims[c] = tr
	}
	return c, err
}

// Attach puts c's site on the net.
func (f *SimFabric) Attach(c *Cluster) { f.net.Attach(f.sims[c]) }

// Kill crashes c: its site is taken off the net — peers' messages to it are
// refused and it sends nothing more — and its write-ahead log is closed
// with what it holds, so a Cluster booted on the same directory recovers
// it.
func (f *SimFabric) Kill(c *Cluster) {
	f.net.Detach(SimAddr(c.SelfSite()))
	_ = c.sys.CloseWAL()
}
