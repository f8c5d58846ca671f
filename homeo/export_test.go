package homeo

import (
	"fmt"
	"time"

	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/rt"
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

// BootSites builds a Cluster that holds every site itself, as an
// in-process drive's does, on the fabric's engine; it needs no net.
func (f *SimFabric) BootSites() (*Cluster, error) {
	opts := f.opts
	opts.Runtime = RuntimeSim
	return boot(opts, f.Eng, nil)
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

// Exec runs on p what a /v1/txn request asks of site — req.Class on
// req.Args, or a draw from the mix when it names none — as a submission's
// body runs it, metrics included: for a drive's client on a SimFabric,
// which is an engine process already.
func (c *Cluster) Exec(p rt.Proc, site int, req wire.TxnRequest) (err error) {
	sub := subPool.Get().(*pendingSub)
	sub.c, sub.site = c, site
	if class := c.Class(req.Class); req.Class == "" {
		sub.req = c.reg.Next(c.rng, site)
	} else if class == nil {
		err = fmt.Errorf("%w: no class %s", ErrAborted, req.Class)
	} else {
		sub.args = append(sub.args[:0], req.Args...)
		sub.req, err = class.wc.Invoke(c.reg.Units(class.wc), sub.args)
	}
	if err == nil {
		c.inflight.Add(1)
		sub.released.Store(false)
		sub.body(p)
		<-sub.done
		err = sub.execErr
	}
	sub.recycle()
	return err
}

// MergeOrder is the merged history CheckMergedReplay walks, as the
// (log, index) position of each entry.
func MergeOrder(logs [][]wire.LogEntry) [][2]int {
	order := mergeOrder(logs)
	out := make([][2]int, len(order))
	for i, p := range order {
		out[i] = [2]int{int(p.log), int(p.at)}
	}
	return out
}
