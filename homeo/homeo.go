// Package homeo is the public, embeddable API of the homeostasis-protocol
// engine: a replicated multi-site transaction system that analyzes
// application transactions (written in the paper's L language or a small
// SQL dialect) and derives treaties — local predicates that let each site
// commit without any cross-site coordination while the predicates hold.
//
// The package wraps the analysis pipeline (parsing, symbolic tables,
// treaty generation) and both execution runtimes behind four concepts:
//
//   - Cluster: a running multi-site deployment, constructed from Options,
//     on either the deterministic simulator (RuntimeSim) or the
//     wall-clock runtime (RuntimeLive) backing real serving.
//   - TxnClass: a transaction class registered at runtime from L or SQL
//     source. The engine analyzes it and generates treaties online; no
//     class needs to exist at compile time.
//   - Session: submits invocations of registered classes (or draws from
//     the base workload's mix) with per-call deadlines.
//   - Stats: a read-only snapshot of throughput, latency percentiles,
//     synchronization ratio, and per-site store counters.
//
// Submission failures are classified by the structured error taxonomy
// (ErrAborted, ErrTimeout, ErrLivelocked, ErrDropped) — use errors.Is.
//
// # Quick start
//
//	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Sites: 2})
//	cls, err := c.Register(homeo.ClassSpec{L: `
//	    transaction Deposit(n) {
//	        v := read(acct);
//	        write(acct = v + n)
//	    }`})
//	res, err := c.Session().Submit(ctx, cls, 10)
//
// The wire protocol counterpart (the /v1 HTTP API served by
// cmd/homeostasis-serve) lives in homeo/httpapi with a Go client in
// homeo/client; both are thin layers over this package.
package homeo

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/homeostasis"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Mode selects the execution protocol (the four systems of the paper's
// Section 6 plus the default-configuration ablation).
type Mode = homeostasis.Mode

// The protocol modes.
const (
	ModeHomeo        = homeostasis.ModeHomeo
	ModeOpt          = homeostasis.ModeOpt
	ModeTwoPC        = homeostasis.ModeTwoPC
	ModeLocal        = homeostasis.ModeLocal
	ModeHomeoDefault = homeostasis.ModeHomeoDefault
)

// Alloc selects the treaty allocation strategy.
type Alloc = homeostasis.Alloc

// The allocation strategies.
const (
	AllocDefault    = homeostasis.AllocDefault
	AllocEqualSplit = homeostasis.AllocEqualSplit
	AllocModel      = homeostasis.AllocModel
	AllocAdaptive   = homeostasis.AllocAdaptive
)

// ParseMode parses a mode name: homeo, opt, 2pc, local, or homeo-default.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "homeo":
		return ModeHomeo, nil
	case "opt":
		return ModeOpt, nil
	case "2pc":
		return ModeTwoPC, nil
	case "local":
		return ModeLocal, nil
	case "homeo-default":
		return ModeHomeoDefault, nil
	}
	return 0, fmt.Errorf("homeo: unknown mode %q (want homeo, opt, 2pc, local, or homeo-default)", s)
}

// ParseAlloc parses an allocation strategy name: default, equal, model,
// or adaptive.
func ParseAlloc(s string) (Alloc, error) {
	switch strings.ToLower(s) {
	case "", "default":
		return AllocDefault, nil
	case "equal":
		return AllocEqualSplit, nil
	case "model":
		return AllocModel, nil
	case "adaptive":
		return AllocAdaptive, nil
	}
	return 0, fmt.Errorf("homeo: unknown alloc %q (want default, equal, model, or adaptive)", s)
}

// Workload is the pluggable base-workload interface (the built-in
// benchmarks internal/micro and internal/tpcc implement it). A Cluster
// needs no base workload: classes registered at runtime are enough.
type Workload = workload.Workload

// Topology is a cluster communication topology (per-site-pair round-trip
// times). Uniform and EC2 construct the common shapes.
type Topology = cluster.Topology

// Uniform returns an n-site topology with one RTT everywhere.
func Uniform(n int, rtt time.Duration) *Topology {
	return cluster.Uniform(n, rt.Duration(rtt))
}

// EC2 returns up to nine sites with the paper's Table 1 inter-region
// round-trip times.
func EC2(n int) *Topology { return cluster.EC2(n) }

// RuntimeKind selects the execution runtime.
type RuntimeKind int

const (
	// RuntimeSim is the deterministic discrete-event simulator: virtual
	// time, exactly reproducible runs, per-call deadlines ignored.
	RuntimeSim RuntimeKind = iota
	// RuntimeLive is the wall-clock runtime: real goroutines, real waits,
	// real concurrency limits. Submissions honor context deadlines.
	RuntimeLive
)

// String names the runtime kind ("sim" or "live").
func (k RuntimeKind) String() string {
	if k == RuntimeLive {
		return "live"
	}
	return "sim"
}

// Options configures a Cluster. The zero value is a usable 2-site
// simulated cluster under the homeostasis protocol.
type Options struct {
	// Runtime selects simulation or wall-clock execution.
	Runtime RuntimeKind
	// Mode is the execution protocol (default ModeHomeo).
	Mode Mode
	// Alloc overrides the treaty allocation strategy (default: the mode's
	// builtin; non-default also enables batched renegotiation, and
	// AllocAdaptive tracks the per-unit demand it splits slack by).
	Alloc Alloc
	// Sites is the number of replica sites (default 2). Ignored when
	// Topology is set.
	Sites int
	// RTT is the uniform inter-site round-trip time (default 50ms).
	// Ignored when Topology is set.
	RTT time.Duration
	// Topology overrides Sites/RTT with an explicit topology.
	Topology *Topology
	// Workload optionally seeds the cluster with a base workload (the
	// built-in benchmarks); classes registered later ride alongside it.
	Workload Workload
	// CPUPerSite caps concurrent transaction execution per site
	// (default 32; a true concurrency limit on RuntimeLive).
	CPUPerSite int
	// LocalExecTime is the per-transaction local service time
	// (default 2ms).
	LocalExecTime time.Duration
	// LockTimeout is the 2PL lock-wait timeout (default 1s).
	LockTimeout time.Duration
	// Seed drives all randomness.
	Seed int64
	// EnableLog records the commit log so CheckReplayEquivalence can
	// verify observational equivalence after a run.
	EnableLog bool
	// MaxInflight bounds concurrently executing submissions on
	// RuntimeLive; excess submissions fail fast with ErrDropped (the wire
	// layer maps that to 429). 0 means the default of 1024.
	MaxInflight int

	// ClientsPerSite, Warmup, and Measure configure Drive's closed loop.
	ClientsPerSite int
	Warmup         time.Duration
	Measure        time.Duration

	// WAL, when Dir is set, makes this process's sites durable: committed
	// transactions, synchronization-round installs, and treaty generations
	// append to per-site write-ahead logs under Dir, and Recover replays
	// them after a restart. Logging is invisible to the virtual timeline,
	// so simulated runs stay byte-identical with or without a WAL. New
	// refuses a WAL under ModeTwoPC and ModeLocal (see Fabric).
	WAL WALOptions

	// Fabric, when set, runs the cluster as one OS process per site over
	// the HTTP site fabric: this process owns exactly Fabric.Site, and
	// the cleanup phase's synchronization rounds travel as binary peer
	// messages (/v1/peer/*, internal/fabric/codec) instead of in-memory
	// calls. Requires RuntimeLive. Every process must be constructed with
	// the same workload, seed, and protocol options, and classes must be
	// registered at every site (the multi-process driver does both). New
	// refuses a fabric under ModeTwoPC and ModeLocal: the baselines are
	// single-process comparison systems — they replicate by writing this
	// process's stores and log nothing a replay could use. Join, Drain and
	// MarkSiteGone need a fabric: a cluster without one refuses them.
	Fabric *FabricOptions
}

// WALOptions configures site durability (see internal/wal).
type WALOptions struct {
	// Dir is the directory holding the per-site log files
	// (site-<k>.wal). Empty disables the WAL entirely.
	Dir string
	// Sync fsyncs every flushed batch before acknowledging. Without it a
	// flush is an ordinary write(2): durable across process crashes
	// (SIGKILL), not across machine/power loss.
	Sync bool
}

// FabricOptions configures a multi-process deployment.
type FabricOptions struct {
	// Site is the one site this process owns.
	Site int
	// Peers lists every site's base URL in site order; Peers[Site] is
	// this process's own address (used by the other processes, ignored
	// locally). len(Peers) fixes the cluster width.
	Peers []string
	// Token is the cluster's shared peer secret: every outgoing peer
	// message carries it and every /v1/peer/* mutation requires it. The
	// peer endpoints install state and treaties, so set a token whenever
	// the peer list crosses anything but a trusted loopback.
	Token string
	// Client optionally overrides the pooled HTTP client used for peer
	// messages.
	Client *http.Client
}

// Cluster is a running multi-site deployment: the embeddable counterpart
// of cmd/homeostasis-serve. Construct with New, register transaction
// classes with Register, submit through a Session, observe with Stats.
type Cluster struct {
	opts Options
	eng  rt.Runtime
	live *rtlive.Runtime // nil on RuntimeSim
	sim  *sim.Engine     // nil on RuntimeLive
	sys  *homeostasis.System
	reg  *workload.Registry
	// artifacts shares registration-time analysis (symbolic tables, guard
	// preprocessing) across isomorphic classes; see workload.ArtifactCache.
	artifacts *workload.ArtifactCache

	// mu serializes registration, sim-runtime submissions, and state
	// snapshots on the sim runtime (which has no scheduler lock of its
	// own). On RuntimeLive, shared protocol state is additionally guarded
	// by the runtime's scheduler lock via locked().
	mu      sync.Mutex
	classes map[string]*TxnClass
	rng     *rand.Rand

	// anySite is the round-robin session every Session() call returns, and
	// sessions[k] the one pinned to site k (see SessionAt).
	anySite  *Session
	sessions []*Session

	inflight atomic.Int64
	draining atomic.Bool
	nextID   atomic.Int64
	nextSite atomic.Int64
	start    time.Time
}

// wallClock is the package's sole sanctioned wall-clock source (uptime
// accounting only; protocol time comes from the rt runtime clock).
var wallClock = time.Now //homeo:wallclock sole clock construction site

// New builds and boots a cluster: per-site stores, CPU resources, and —
// for the treaty-based modes — offline treaties for the base workload's
// units. Registered classes get their treaties generated online.
func New(opts Options) (*Cluster, error) {
	if opts.Fabric != nil && opts.Runtime != RuntimeLive {
		return nil, fmt.Errorf("homeo: Options.Fabric (multi-process) requires RuntimeLive")
	}
	var eng rt.Runtime
	switch opts.Runtime {
	case RuntimeSim:
		eng = sim.NewEngine(opts.Seed)
	case RuntimeLive:
		eng = rtlive.New(opts.Seed)
	default:
		return nil, fmt.Errorf("homeo: unknown runtime kind %d", opts.Runtime)
	}
	// Multi-process: this process owns one site; peer messages ride the
	// HTTP fabric. The peer endpoints are served by homeo/httpapi's
	// /v1/peer/* mount (PeerHandler).
	return boot(opts, eng, func(c *Cluster, f *FabricOptions) fabric.Elastic {
		ht := fabric.NewHTTP(c.live, f.Site, f.Peers, c.sys.Node(f.Site), f.Client)
		ht.SetToken(f.Token)
		return ht
	})
}

// boot builds the cluster New describes on eng; when opts.Fabric is set,
// fab builds the transport this process's site reaches its peers over.
func boot(opts Options, eng rt.Runtime, fab func(*Cluster, *FabricOptions) fabric.Elastic) (*Cluster, error) {
	if opts.Fabric != nil {
		if n := len(opts.Fabric.Peers); n < 1 {
			return nil, fmt.Errorf("homeo: Options.Fabric.Peers must name every site")
		} else if opts.Sites != 0 && opts.Sites != n {
			return nil, fmt.Errorf("homeo: Sites (%d) disagrees with len(Fabric.Peers) (%d)", opts.Sites, n)
		} else {
			opts.Sites = n
		}
		if opts.Fabric.Site < 0 || opts.Fabric.Site >= opts.Sites {
			return nil, fmt.Errorf("homeo: Fabric.Site %d out of range [0,%d)", opts.Fabric.Site, opts.Sites)
		}
	}
	if opts.Topology == nil {
		if opts.Sites == 0 {
			opts.Sites = 2
		}
		if opts.Sites < 1 {
			return nil, fmt.Errorf("homeo: Sites must be positive")
		}
		if opts.RTT == 0 {
			opts.RTT = 50 * time.Millisecond
		}
		opts.Topology = Uniform(opts.Sites, opts.RTT)
	}
	opts.Sites = opts.Topology.NSites()
	if opts.Fabric != nil && len(opts.Fabric.Peers) != opts.Sites {
		return nil, fmt.Errorf("homeo: topology has %d sites but Fabric.Peers names %d", opts.Sites, len(opts.Fabric.Peers))
	}
	if opts.MaxInflight == 0 {
		opts.MaxInflight = 1024
	}
	reg, err := workload.NewRegistry(opts.Workload, opts.Sites)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:      opts,
		reg:       reg,
		artifacts: workload.NewArtifactCache(),
		classes:   make(map[string]*TxnClass),
		rng:       rand.New(rand.NewSource(opts.Seed + 101)),
		start:     wallClock(),
	}
	c.anySite = &Session{c: c, site: -1}
	for k := 0; k < opts.Sites; k++ {
		c.sessions = append(c.sessions, &Session{c: c, site: k})
	}
	sysOpts := homeostasis.Options{
		Mode:           opts.Mode,
		Alloc:          opts.Alloc,
		Topo:           opts.Topology,
		CPUPerSite:     opts.CPUPerSite,
		LocalExecTime:  rt.Duration(opts.LocalExecTime),
		LockTimeout:    rt.Duration(opts.LockTimeout),
		ClientsPerSite: opts.ClientsPerSite,
		Warmup:         rt.Duration(opts.Warmup),
		Measure:        rt.Duration(opts.Measure),
		Seed:           opts.Seed,
		EnableLog:      opts.EnableLog,
	}
	c.eng = eng
	c.sim, _ = eng.(*sim.Engine)
	c.live, _ = eng.(*rtlive.Runtime)
	// The cleanup phase's consolidated T' executions are real work on the
	// live runtime: charge a CPU slot and the service time (the simulator
	// keeps the paper's seed model so experiment goldens hold).
	sysOpts.CleanupExec = c.live != nil
	sys, err := homeostasis.New(c.eng, reg, sysOpts)
	if err != nil {
		return nil, err
	}
	c.sys = sys
	// The 2PC and local baselines are single-process comparison systems:
	// they replicate by writing this process's stores and log nothing a
	// replay could use, so they are refused what they cannot honour.
	if opts.WAL.Dir != "" {
		if err := sys.RequireTreaties("a write-ahead log (Options.WAL)"); err != nil {
			return nil, err
		}
	}
	if f := opts.Fabric; f != nil {
		if err := sys.RequireTreaties("the multi-process site fabric (Options.Fabric)"); err != nil {
			return nil, err
		}
		sys.SetFabric(fab(c, f), f.Site)
		// Record the initial membership's addresses so membership WAL
		// records and join admissions can rebuild peer transports.
		sys.SetSiteAddrs(f.Peers)
	}
	if opts.ClientsPerSite == 0 {
		// No closed-loop drive planned: measure from the start (Drive
		// resets the window when used).
		sys.Col.Measuring = true
		sys.Col.Start = c.eng.Now()
	}
	return c, nil
}

// locked runs fn with exclusive access to shared protocol state: under
// the scheduler lock on RuntimeLive, under the cluster mutex on
// RuntimeSim (where at most one submission executes at a time anyway).
func (c *Cluster) locked(fn func()) {
	if c.live != nil {
		c.live.Locked(fn)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

// Runtime reports the cluster's runtime kind.
func (c *Cluster) Runtime() RuntimeKind { return c.opts.Runtime }

// Sites returns the current membership width: boot sites plus admitted
// joins. Drained sites keep their slots (indexes are never reused), so
// the width only grows; ActiveSites counts the sites accepting work.
// The read is authoritative (under the cluster lock), so on a
// multi-process cluster it reflects joins admitted through the peer
// fabric, not just operations this process initiated.
func (c *Cluster) Sites() (n int) {
	c.locked(func() { n = c.sys.NSites() })
	return n
}

// ActiveSites counts the membership slots currently accepting
// submissions (joined sites included, draining and drained excluded).
func (c *Cluster) ActiveSites() (n int) {
	c.locked(func() { n = c.sys.ActiveSites() })
	return n
}

// Mode returns the execution protocol.
func (c *Cluster) Mode() Mode { return c.opts.Mode }

// WorkloadName names the base workload ("custom" when none).
func (c *Cluster) WorkloadName() string { return c.reg.Name() }

// SelfSite reports the one site this process owns in a multi-process
// deployment, or -1 when every site is in-process.
func (c *Cluster) SelfSite() int {
	if c.opts.Fabric == nil {
		return -1
	}
	return c.opts.Fabric.Site
}

// PeerHandler returns the HTTP handler answering the site fabric's peer
// protocol for this process's site, to mount under /v1/peer/ (httpapi
// does this automatically). Only meaningful on a multi-process cluster;
// nil otherwise.
func (c *Cluster) PeerHandler() http.Handler {
	f := c.opts.Fabric
	if f == nil {
		return nil
	}
	return fabric.NewPeerHandler(c.sys.Node(f.Site), c.locked, f.Token)
}

// PeerToken reports the configured shared peer secret ("" when unset or
// not a multi-process cluster). httpapi uses it to guard the read-only
// peer introspection endpoints with the same credential as the peer
// mutations.
func (c *Cluster) PeerToken() string {
	if c.opts.Fabric == nil {
		return ""
	}
	return c.opts.Fabric.Token
}

// System exposes the underlying protocol engine for advanced embedding
// (experiments, direct rt access). Most callers never need it.
func (c *Cluster) System() *homeostasis.System { return c.sys }

// Recover opens the write-ahead logs under Options.WAL.Dir, replays any
// records found (a restarted process recovers its pre-crash state:
// deterministic reboot plus the logged commits, installs, and treaty
// generations on top), and — on a multi-process cluster — rejoins the
// site fabric: peers fail over any synchronization round the previous
// incarnation was coordinating, and units whose treaty generation moved
// on while this process was down are repaired from the peers' replicated
// state. Returns the number of WAL records recovered.
//
// Call exactly once, after every transaction class is registered and
// before serving traffic; a no-op returning (0, nil) when no WAL is
// configured.
func (c *Cluster) Recover() (int, error) {
	if c.opts.WAL.Dir == "" {
		return 0, nil
	}
	var (
		n   int
		err error
	)
	c.locked(func() {
		n, err = c.sys.OpenWAL(c.opts.WAL.Dir, wal.Options{Sync: c.opts.WAL.Sync})
	})
	if err != nil {
		return n, err
	}
	if n == 0 {
		// Fresh (empty) logs mean a first boot: the deterministic boot
		// state is already correct, and on a cluster whose processes boot
		// in parallel the peers may not even be listening yet.
		return 0, nil
	}
	// The rejoin handshake parks on peer replies, so it needs a process.
	rejoin := func() error {
		return c.runProc("rejoin handshake", func(p rt.Proc) error {
			return c.sys.RejoinFabric(p)
		})
	}
	rerr := rejoin()
	// On a cluster whose processes restart together, a sibling may not be
	// listening yet when this process announces itself — retry the
	// handshake with backoff instead of failing the boot.
	for wait := 250 * time.Millisecond; rerr != nil && c.live != nil && wait <= 4*time.Second; wait *= 2 {
		time.Sleep(wait)
		rerr = rejoin()
	}
	return n, rerr
}

// Drive runs the closed-loop load driver: Options.ClientsPerSite clients
// per site issue requests from the base workload's mix (or the registered
// classes, when there is no base workload) through warm-up plus
// measurement, then returns the collected Stats. On RuntimeSim the run is
// deterministic virtual time; on RuntimeLive it is a real load test.
// Drive must not run concurrently with Submit.
func (c *Cluster) Drive() Stats {
	c.locked(func() {
		// Fresh collector: anything recorded before the drive (boot-time
		// submissions) must not pollute the measured window; Run flips
		// Measuring back on at the warm-up boundary.
		*c.sys.Col = metrics.Collector{}
	})
	c.sys.Run()
	return c.Stats()
}

// BeginMeasure starts a fresh measurement window now: counters and
// latency samples collected so far (e.g. during a warm-up) are
// discarded, so Stats reports only what happens from this instant (the
// commit log for replay checks is unaffected). The serving binary's
// driver calls it after its warm-up.
func (c *Cluster) BeginMeasure() {
	c.locked(func() {
		*c.sys.Col = metrics.Collector{
			Measuring: true,
			Start:     c.eng.Now(),
		}
	})
}

// CheckReplayEquivalence verifies the paper's Theorem 3.8 observational
// equivalence on the recorded commit log (Options.EnableLog must be set):
// applying the committed transactions serially in commit order to the
// initial logical database must reproduce the final consolidated
// database.
func (c *Cluster) CheckReplayEquivalence() (err error) {
	c.locked(func() { err = c.sys.CheckReplayEquivalence() })
	return err
}

// Committed returns the number of commit-log entries (0 unless
// Options.EnableLog).
func (c *Cluster) Committed() (n int) {
	c.locked(func() { n = c.sys.CommitLog.Len() })
	return n
}

// Draining reports whether Close has begun.
func (c *Cluster) Draining() bool { return c.draining.Load() }

// Close stops admitting submissions and cancels every in-flight process
// (parked processes are woken into their deferred cleanup). After Close
// returns, no process touches cluster state; Stats and
// CheckReplayEquivalence remain readable.
func (c *Cluster) Close() {
	if c.draining.Swap(true) {
		return
	}
	if c.live != nil {
		c.live.Drain()
	} else {
		c.sim.Drain()
	}
	// Flush and close the write-ahead logs last: every process that could
	// have appended has drained by now.
	c.locked(func() { _ = c.sys.CloseWAL() })
}
