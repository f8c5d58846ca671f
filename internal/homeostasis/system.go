// Package homeostasis implements the online half of the paper: the
// homeostasis protocol itself (Section 3.3) running over a simulated
// multi-site cluster, plus the three comparison systems of Section 6.1
// (2PC, local, and the hand-crafted demarcation baseline OPT).
//
// Each site holds a local 2PL store (internal/store) containing the
// replicated base objects and the site's Appendix B delta objects.
// Transactions execute disconnected; before commit the site checks its
// local treaties (internal/treaty). A violation triggers the cleanup
// phase: synchronize state, run the violating transaction T' everywhere,
// generate new treaties (optimizer / default / equal-split depending on
// mode), and start a new round.
package homeostasis

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/homeo/wire"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/store"
	"repro/internal/treaty"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Structured execution errors. ExecRequest wraps these so embedding
// callers can classify failures with errors.Is instead of string
// matching; the public homeo package re-surfaces them in its error
// taxonomy.
var (
	// ErrLivelocked marks a request that exhausted its retry budget
	// without committing (repeated conflict aborts or lost cleanup votes).
	ErrLivelocked = errors.New("homeostasis: livelocked")
	// ErrProtocol marks a request the protocol could not run (a unit no
	// class registered, a round whose peers could not be reached); the
	// request did not commit.
	ErrProtocol = errors.New("homeostasis: protocol error")
)

// Mode selects the execution protocol.
type Mode int

// The four systems compared in Section 6.
const (
	// ModeHomeo is the homeostasis protocol with Algorithm 1 treaty
	// optimization.
	ModeHomeo Mode = iota
	// ModeOpt is the hand-crafted demarcation baseline: equal-split
	// treaties, no solver.
	ModeOpt
	// ModeTwoPC runs every transaction through two-phase commit across
	// all replicas.
	ModeTwoPC
	// ModeLocal executes locally with no synchronization (no cross-site
	// consistency).
	ModeLocal
	// ModeHomeoDefault is the ablation: homeostasis with the Theorem 4.3
	// default (pin-everything) configuration instead of the optimizer.
	ModeHomeoDefault
)

func (m Mode) String() string {
	switch m {
	case ModeHomeo:
		return "homeo"
	case ModeOpt:
		return "opt"
	case ModeTwoPC:
		return "2pc"
	case ModeLocal:
		return "local"
	case ModeHomeoDefault:
		return "homeo-default"
	}
	return "?"
}

// Alloc selects the treaty allocation strategy for the treaty-based modes
// (homeo, opt, homeo-default). AllocDefault keeps each mode's built-in
// strategy and the seed's serial cleanup phase; any other value overrides
// the configuration generator AND enables the adaptive engine extras:
// per-unit demand tracking and batched renegotiation (queued violators
// commit as co-winners of an in-flight cleanup round instead of paying
// their own two communication rounds).
type Alloc int

const (
	// AllocDefault is the seed behavior: the mode picks the strategy and
	// the cleanup phase serves one violator per round.
	AllocDefault Alloc = iota
	// AllocEqualSplit splits each clause's slack equally (the OPT
	// baseline's strategy, now available under any mode).
	AllocEqualSplit
	// AllocModel runs the Algorithm 1 optimizer against the workload's
	// static future model.
	AllocModel
	// AllocAdaptive splits slack proportionally to the per-site burn
	// rates observed since the unit's last negotiation round
	// (treaty.AdaptiveConfig), so skewed and drifting workloads
	// renegotiate less often.
	AllocAdaptive
)

func (a Alloc) String() string {
	switch a {
	case AllocDefault:
		return "default"
	case AllocEqualSplit:
		return "equal"
	case AllocModel:
		return "model"
	case AllocAdaptive:
		return "adaptive"
	}
	return "?"
}

// Options configures a run.
type Options struct {
	Mode Mode
	Topo *cluster.Topology
	// Alloc overrides the treaty allocation strategy and, when not
	// AllocDefault, enables demand tracking and batched renegotiation.
	Alloc Alloc
	// CleanupExec makes the cleanup phase occupy a CPU slot and sleep
	// LocalExecTime per transaction it applies, so synchronized
	// transactions pay real execution cost on live runtimes. Off by
	// default: the simulator's seed model folds T''s execution cost into
	// the reported violation breakdown without advancing virtual time
	// (the experiment goldens depend on that timeline), which is exact
	// for the breakdown figures and a <1%-of-RTT approximation for the
	// throughput ones.
	CleanupExec bool
	// ClientsPerSite is Nc.
	ClientsPerSite int
	// CPUPerSite caps concurrent transaction execution per site (the
	// paper ran all replicas of the microbenchmark on one 32-core host).
	CPUPerSite int
	// LocalExecTime is the service time of one transaction's local
	// execution.
	LocalExecTime rt.Duration
	// LockTimeout mirrors MySQL's innodb_lock_wait_timeout (paper: 1s
	// minimum).
	LockTimeout rt.Duration
	// Lookahead (L) and CostFactor (f) are Algorithm 1's knobs.
	Lookahead  int
	CostFactor int
	// Warmup and Measure are the warm-up and measurement windows.
	Warmup  rt.Duration
	Measure rt.Duration
	// Seed drives all randomness.
	Seed int64
	// EnableLog records the commit log for correctness replay tests.
	EnableLog bool
	// MeasureName restricts metrics to one transaction type; the paper's
	// TPC-C experiments report only New Order measurements.
	MeasureName string
}

// Committed is one entry of the commit log (for replay-based
// observational-equivalence checks).
type Committed struct {
	Name string
	// Args is the log's own copy of the request's arguments, in the
	// System's slab (appendCommit): a request borrows its caller's.
	Args []int64
	Site int
	// Clock is the commit's Lamport timestamp. Synchronization rounds
	// propagate clocks between sites, so merging per-site logs of a
	// multi-process cluster by (Clock, Site, position) yields an order
	// consistent with the causality the rounds establish.
	Clock int64
	// Round names the cleanup round for cleanup-phase commits, and is the
	// zero RoundID for every other commit. It is the cluster-wide dedup key
	// under coordinator failover: an adopted winner may be logged at
	// several sites, and a merge keeps one copy.
	Round fabric.RoundID
	// Apply re-applies the logical effect to a database when called with
	// Args (carried from the request; nil on entries recovered from a WAL
	// or adopted from a failed-over round, which replay through the class
	// registry instead).
	Apply func(db lang.Database, args []int64) []int64
}

// siteDemand is one site's observed demand for a unit since the unit's
// last negotiation round: the absolute delta consumption (burn) of local
// commits and the violation count. The adaptive allocator splits the next
// round's slack proportionally to burn. The counters are sharded per
// site and atomic: committers bump only their own site's entry without
// touching the scheduler lock, and the padding keeps adjacent sites'
// counters off one cache line so concurrent bumps do not false-share.
type siteDemand struct {
	burn       atomic.Int64
	violations atomic.Int64
	_          [48]byte
}

// negotiation is one in-flight cleanup round. With batching enabled
// (Options.Alloc != AllocDefault) queued violators whose units are all
// covered by the round register as co-winners while the leader is still
// in its first communication round; the leader then folds their
// footprints too, applies their transactions on the consolidated state,
// and one treaty generation plus one distribution round commits the
// whole batch.
type negotiation struct {
	accepting bool
	joiners   []*joiner
}

// joiner is one co-winner of a batched cleanup round.
type joiner struct {
	site      int
	req       workload.Request
	committed bool
	log       []int64
}

// unitState is the runtime state of one treaty unit.
type unitState struct {
	id      int
	objects []lang.ObjID
	// treaties holds each site's local treaty of the current generation,
	// compiled: what the pre-commit check evaluates.
	treaties    []treaty.CompiledLocal
	negotiating bool
	// inflight counts executions currently between Begin and
	// Commit/Abort on this unit. A site must not contribute a round-1
	// state reply while one is in flight: the exec could commit between
	// the reply and the install (a real window on live runtimes — on the
	// simulator lock waits never span virtual instants, so this is
	// always zero when a round collects), and its write would be folded
	// away. CollectState answers ErrBusy instead; the coordinator backs
	// off and retries.
	inflight int
	// neg is the in-flight cleanup round while negotiating (batching
	// runs only; nil under AllocDefault).
	neg     *negotiation
	waiters []rt.Proc
	version int64
	// demand is the per-site demand observed since the last negotiation
	// round (allocated only when Options.Alloc != AllocDefault).
	demand []siteDemand
	// lastCfg is the configuration the unit's last derivation produced; the
	// deriver passes it to the next model-optimized solve as the warm-start
	// hint (treaty.OptimizeOptions.Warm — bit-identical output, the hint
	// only skips the foregone first MaxSAT round).
	lastCfg treaty.Config
}

// resetDemand clears the unit's per-site demand stats (called when a
// negotiation installs fresh treaties).
func (u *unitState) resetDemand() {
	for i := range u.demand {
		u.demand[i].burn.Store(0)
		u.demand[i].violations.Store(0)
	}
}

// System is a running multi-site deployment.
type System struct {
	E      rt.Runtime
	Opts   Options
	W      workload.Workload
	Stores []*store.Store
	CPUs   []*rt.Resource
	Units  []*unitState
	Col    *metrics.Collector

	// CommitLog is every commit in commit order (Options.EnableLog).
	CommitLog CommitLog
	// logSlab holds every commit-log entry's Args (appendCommit and WAL
	// replay), in chunks handed out piecewise (carve) and kept while the
	// log lives.
	logSlab []int64

	// deadline is the absolute end of the Run window, measured from when
	// Run is called (on a live runtime, system construction consumes real
	// time before Run starts).
	deadline rt.Time

	// exec runs one request under the protocol mode and treaties says whether
	// that mode keeps treaties at all (the 2PC and local baselines do not):
	// both resolved from Options.Mode once, at New, and the only two things
	// the rest of the package knows about the mode.
	exec     func(rt.Proc, int, workload.Request) (ExecResult, error)
	treaties bool

	// der derives every unit's treaties (see derive.go); a system without
	// treaties never asks it.
	der *deriver

	// BusyRetries counts violators that found their units already
	// renegotiating and fell back to the serial wait-and-retry path
	// (the "loser" path; co-winner joins are counted on the Collector).
	BusyRetries int64

	// fab ships the cleanup phase's synchronization rounds between site
	// actors; self is the one site this System owns in a multi-process
	// deployment (-1: every site is in-process behind fabric.Local).
	// elastic is fab when it carries membership too (SetFabric), nil for
	// Local: see membership.
	fab     fabric.Transport
	elastic fabric.Elastic
	self    int

	// clock is the system's Lamport clock: advanced on every commit and
	// on every fabric message, merged from received messages. roundSeq
	// numbers locally coordinated rounds; rounds tracks every granted
	// round (local and remote) while it is in flight.
	clock    int64
	roundSeq uint64
	rounds   map[fabric.RoundID]*roundGrant

	// wals holds each owned site's write-ahead log (nil entries for sites
	// this System does not own); RecoveredRecords counts the records
	// OpenWAL replayed at boot.
	wals             []*wal.Log
	RecoveredRecords int64

	// epoch, status, and siteAddrs are the membership table (see
	// membership.go): the epoch versions this process's view of the site
	// set, status tracks each slot's lifecycle (slots are never reused),
	// and siteAddrs remembers peer base URLs for WAL-driven transport
	// rebuilds.
	epoch     int64
	status    []siteStatus
	siteAddrs []string

	// frames recycles per-request execution scratch (unit slice, delta
	// view, print-log buffer) across ExecRequest calls, roundFree the
	// coordinator's per-round scratch (see roundScratch); deltaNames
	// memoizes lang.DeltaObj strings per (object, site), which the hot
	// path and the site handlers otherwise re-format on every access;
	// walWrites is logCommitClock's watermark map and walTreaty logTreaty's
	// constraint list, each filled and encoded within one call. All are
	// accessed only under the runtime's execution right.
	frames     []*execFrame
	roundFree  []*roundScratch
	deltaNames map[lang.ObjID][]lang.ObjID
	walWrites  map[string]int64
	walTreaty  []wire.PeerConstraint
}

// New builds the system: per-site stores initialized with the replicated
// database (base objects plus zeroed delta objects), CPU resources, and
// per-unit treaties generated offline by the protocol initializer
// (Section 5.1).
func New(e rt.Runtime, w workload.Workload, opts Options) (*System, error) {
	if opts.CPUPerSite <= 0 {
		opts.CPUPerSite = 32
	}
	if opts.LocalExecTime == 0 {
		opts.LocalExecTime = 2 * rt.Millisecond
	}
	if opts.LockTimeout == 0 {
		opts.LockTimeout = rt.Second
	}
	if opts.Lookahead == 0 {
		opts.Lookahead = 20
	}
	if opts.CostFactor == 0 {
		opts.CostFactor = 3
	}
	n := opts.Topo.NSites()
	sys := &System{
		E:          e,
		Opts:       opts,
		W:          w,
		Col:        &metrics.Collector{},
		self:       -1,
		rounds:     make(map[fabric.RoundID]*roundGrant),
		deltaNames: make(map[lang.ObjID][]lang.ObjID),
		status:     make([]siteStatus, n),
		siteAddrs:  make([]string, n),
	}
	switch opts.Mode {
	case ModeHomeo, ModeOpt, ModeHomeoDefault:
		sys.exec, sys.treaties = sys.execHomeo, true
	case ModeTwoPC:
		sys.exec = sys.execTwoPC
	case ModeLocal:
		sys.exec = sys.execLocal
	default:
		return nil, fmt.Errorf("homeostasis: unknown mode %d", int(opts.Mode))
	}
	sys.der = newDeriver(w, opts, sys.deltaName, sys.Col)
	initial := w.InitialDB()
	for i := 0; i < n; i++ {
		s := store.New(e, initial)
		s.LockTimeout = opts.LockTimeout
		sys.Stores = append(sys.Stores, s)
		sys.CPUs = append(sys.CPUs, e.NewResource(opts.CPUPerSite))
	}
	// Default fabric: every site in-process, latency charged per message
	// from the topology. Multi-process deployments install fabric.HTTP via
	// SetFabric after construction.
	nodes := make([]fabric.Node, n)
	for k := range nodes {
		nodes[k] = sys.Node(k)
	}
	sys.fab = fabric.NewLocal(opts.Topo, nodes)
	for u := 0; u < w.NumUnits(); u++ {
		if err := sys.addUnit(u); err != nil {
			return nil, fmt.Errorf("homeostasis: initializing unit %d: %w", u, err)
		}
	}
	return sys, nil
}

// addUnit appends the workload's unit id with treaties derived from its
// folded state through the deriver the cleanup phase uses, charging no
// virtual time: the protocol initializer (Section 5.1), offline at boot and
// online for a class registered later.
func (sys *System) addUnit(id int) error {
	u := &unitState{id: id, objects: sys.W.UnitObjects(id)}
	if sys.batching() {
		u.demand = make([]siteDemand, sys.Opts.Topo.NSites())
	}
	if sys.treaties {
		// In a multi-process cluster every process registers a class on its
		// own and the treaties must agree across them, while optimizer
		// stream and memo have diverged by whatever rounds each process
		// happened to coordinate: derive standalone there.
		locals, err := sys.der.derive(derivation{
			u: u, folded: sys.foldUnit(u), width: sys.Opts.Topo.NSites(),
			weights: sys.slackWeights(u), standalone: sys.self >= 0,
		})
		if err == nil {
			err = sys.installLocalTreaties(u, locals)
		}
		if err != nil {
			return err
		}
	}
	sys.Units = append(sys.Units, u)
	return nil
}

// AddUnits extends a running system with treaty units the workload gained
// after construction (dynamic transaction-class registration). install
// gives initial logical values for objects the new units introduce; they
// are written as base values at every site with their delta objects
// zeroed, i.e. a registration is a synchronization point for its own
// objects. Treaties for each new unit are generated online through the
// same path the cleanup phase uses. Must be called under the runtime's
// execution contract (from a process, a timer callback, or
// rtlive.Runtime.Locked); it performs no parking, so it is atomic with
// respect to in-flight transactions. A failure leaves the unit table as it
// was: the registry rolls the batch back, and the ids it hands out next
// must get fresh units, not the stale ones of the batch that failed.
func (sys *System) AddUnits(install lang.Database) error {
	n := sys.Opts.Topo.NSites()
	for _, obj := range install.Objects() {
		for s := 0; s < n; s++ {
			sys.Stores[s].Apply(obj, install[obj])
			for k := 0; k < n; k++ {
				sys.Stores[s].Apply(sys.deltaName(obj, k), 0)
			}
		}
	}
	had := len(sys.Units)
	for id := had; id < sys.W.NumUnits(); id++ {
		if err := sys.addUnit(id); err != nil {
			sys.Units = sys.Units[:had]
			return fmt.Errorf("homeostasis: registering unit %d: %w", id, err)
		}
	}
	return nil
}

// SolverInvocations counts the treaty configurations computed so far, at
// boot and online; CacheHits counts those the deriver's memo served instead.
func (sys *System) SolverInvocations() int64 { return sys.der.solves }

// CacheHits: see SolverInvocations.
func (sys *System) CacheHits() int64 { return sys.der.hits }

// UnitLocals returns the unit's current per-site local treaties, for
// introspection (the public API surfaces them as strings).
func (sys *System) UnitLocals(unit int) []treaty.Local {
	if unit < 0 || unit >= len(sys.Units) {
		return nil
	}
	u := sys.Units[unit]
	locals := make([]treaty.Local, len(u.treaties))
	for k := range u.treaties {
		locals[k] = u.treaties[k].Local()
	}
	return locals
}

// foldUnit consolidates the unit's logical values across all sites:
// base value (identical at every member between rounds; a gone site's copy
// stops at its absorb, so it is read from the first site still in the
// membership) plus every site's own delta, computed from the stores on
// every call.
func (sys *System) foldUnit(u *unitState) lang.Database {
	base := sys.Stores[0]
	for k, st := range sys.status {
		if st != siteGone {
			base = sys.Stores[k]
			break
		}
	}
	folded := lang.Database{}
	for _, obj := range u.objects {
		v := base.Get(obj)
		for k, s := range sys.Stores {
			v += s.Get(sys.deltaName(obj, k))
		}
		folded[obj] = v
	}
	return folded
}

// installLocalTreaties compiles and installs a full per-site treaty set
// on the unit.
func (sys *System) installLocalTreaties(u *unitState, locals []treaty.Local) error {
	u.treaties = make([]treaty.CompiledLocal, len(locals))
	for k, l := range locals {
		if err := u.setSiteTreaty(k, l); err != nil {
			return err
		}
	}
	u.version++
	return nil
}

// batching reports whether the cleanup phase accepts co-winners
// (batched renegotiation is part of the adaptive engine opt-in).
func (sys *System) batching() bool { return sys.Opts.Alloc != AllocDefault }

// slackWeights resolves the weights the unit's next derivation splits slack
// by: the observed demand under the adaptive strategy, else none — the
// strategy configures on its own. Once any site is draining or gone the
// membership is overlaid, so every strategy becomes a weighted split in
// which an inactive site gets zero slack: any write it can no longer spend
// would leak consistency past its drain. The fixed-topology path is
// untouched.
func (sys *System) slackWeights(u *unitState) []int64 {
	var weights []int64
	if sys.der.strategy == stratAdaptive {
		weights = quantizeDemand(u.demand)
	}
	if sys.anyInactive() {
		weights = sys.membershipWeights(weights)
	}
	return weights
}

// quantizeDemand maps per-site burn counters to a coarse weight vector
// (resolution 8 relative to the total) so the deriver's memo can share
// adaptive allocations between units with similar — not only identical —
// demand skew, and the allocation itself is a pure function of the memo
// key.
func quantizeDemand(demand []siteDemand) []int64 {
	weights := make([]int64, len(demand))
	total := int64(0)
	for i := range demand {
		total += demand[i].burn.Load()
	}
	if total == 0 {
		// No burn observed (e.g. only violations): fall back to violation
		// counts so a violation-heavy site still attracts slack.
		for i := range demand {
			total += demand[i].violations.Load()
		}
		if total == 0 {
			return weights
		}
		for i := range demand {
			weights[i] = (demand[i].violations.Load()*16/total + 1) / 2
		}
		return weights
	}
	for i := range demand {
		weights[i] = (demand[i].burn.Load()*16/total + 1) / 2
	}
	return weights
}

// solverBase and solverPerSample model the virtual time charged for treaty
// computation during a negotiation (Figure 24's "solver" component): base
// cost plus per-sample cost of Algorithm 1's L*f simulated writes. The paper
// reports <50ms overall for its settings.
const (
	solverBase      = 5 * rt.Millisecond
	solverPerSample = 500 * rt.Microsecond
)

// solverTime is that charge for one negotiation. Slack splits and the
// default configuration are closed-form (base cost only).
func (sys *System) solverTime() rt.Duration {
	if sys.der.strategy == stratModel {
		return solverBase + rt.Duration(sys.Opts.Lookahead*sys.Opts.CostFactor)*solverPerSample
	}
	return solverBase
}

// Run starts ClientsPerSite clients at every site and runs the runtime
// through warm-up plus measurement, returning the collector. On the
// simulator this replays the whole run in virtual time; on a live runtime
// (internal/rtlive) it is a closed-loop load driver measuring real
// throughput and latency.
func (sys *System) Run() *metrics.Collector {
	n := sys.Opts.Topo.NSites()
	deadline := sys.E.Now() + rt.Time(sys.Opts.Warmup+sys.Opts.Measure)
	sys.deadline = deadline
	sys.E.SetDeadline(deadline)
	// Warm-up boundary: flip the collector into measuring mode.
	sys.E.After(sys.Opts.Warmup, func() {
		sys.Col.Measuring = true
		sys.Col.Start = sys.E.Now()
	})
	for site := 0; site < n; site++ {
		for c := 0; c < sys.Opts.ClientsPerSite; c++ {
			site := site
			id := site*sys.Opts.ClientsPerSite + c
			sys.E.Spawn(id, func(p rt.Proc) {
				sys.clientLoop(p, site, id)
			})
		}
	}
	sys.E.Run()
	// Drain before reading the collector: on a live runtime processes keep
	// executing past the deadline until cancelled, and the collector must
	// not be read concurrently with them.
	sys.E.Drain()
	sys.Col.End = sys.E.Now()
	if sys.Col.End > deadline {
		sys.Col.End = deadline
	}
	return sys.Col
}

// clientLoop issues requests back-to-back until the deadline.
func (sys *System) clientLoop(p rt.Proc, site, id int) {
	rng := rand.New(rand.NewSource(sys.Opts.Seed*1_000_003 + int64(id)))
	deadline := sys.deadline
	for {
		if p.Now() >= deadline {
			return
		}
		req := sys.W.Next(rng, site)
		start := p.Now()
		res, err := sys.ExecRequest(p, site, req)
		if err != nil {
			if errors.Is(err, fabric.ErrSiteGone) {
				// The site drained out of the membership: this client is
				// done (retrying would spin without advancing time).
				return
			}
			// Unrecoverable execution error: drop the request.
			sys.Col.RecordDropped()
			continue
		}
		if sys.Opts.MeasureName == "" || req.Name == sys.Opts.MeasureName {
			sys.Col.RecordCommit(rt.Duration(p.Now()-start), res.Synced)
		}
	}
}

// ExecResult is the observable outcome of one executed request.
type ExecResult struct {
	// Committed reports whether the request's effects are installed. It
	// is false only on the local baseline's silent conflict-abort path
	// (kept for the paper's figures); every treaty-based and 2PC success
	// is a commit.
	Committed bool
	// Synced reports whether the request triggered a treaty
	// synchronization round (or was batched into one as a co-winner).
	Synced bool
	// Log is the transaction's observable print log (Definition 2.1) —
	// SELECT results for sqlfront classes.
	Log []int64
}

// ExecRequest runs one request at the given site on the calling process
// under the system's protocol, reporting the observable outcome. It is
// the single entry point shared by the simulated client loops, the public
// embeddable API, and the live serving runtime (cmd/homeostasis-serve).
// Errors wrap ErrLivelocked or ErrProtocol for classification.
func (sys *System) ExecRequest(p rt.Proc, site int, req workload.Request) (ExecResult, error) {
	if site < 0 || site >= sys.Opts.Topo.NSites() {
		return ExecResult{}, fmt.Errorf("%w: site %d out of range [0,%d)", ErrProtocol, site, sys.Opts.Topo.NSites())
	}
	if site < len(sys.status) && sys.status[site] != siteActive {
		// Membership fence: a draining site absorbs its deltas and must
		// not accumulate new ones; a gone site is out of the cluster.
		return ExecResult{}, fmt.Errorf("homeostasis: site %d is %v: %w", site, sys.status[site], fabric.ErrSiteGone)
	}
	return sys.exec(p, site, req)
}

// RequireTreaties refuses feature under a mode that keeps no treaties. The
// 2PC and local baselines are single-process comparison systems: they
// replicate by writing this process's stores directly and log nothing a
// replay could use, so durability, the multi-process fabric and the elastic
// operations — all built on treaty units and their synchronization rounds —
// do not apply to them.
func (sys *System) RequireTreaties(feature string) error {
	if sys.treaties {
		return nil
	}
	return fmt.Errorf("homeostasis: mode %v is a single-process comparison baseline and does not support %s", sys.Opts.Mode, feature)
}

// StoreStats is an aggregate of the per-site 2PL store counters.
type StoreStats = store.Stats

// SiteStats returns each site's store counters.
func (sys *System) SiteStats() []StoreStats {
	out := make([]StoreStats, len(sys.Stores))
	for i, s := range sys.Stores {
		out[i] = s.Stats
	}
	return out
}

// StoreStats returns the cluster-wide sum of the per-site store counters.
func (sys *System) StoreStats() StoreStats {
	var sum StoreStats
	for _, s := range sys.Stores {
		sum.Add(s.Stats)
	}
	return sum
}

// AllUnitObjects lists every treaty unit's logical objects, deduplicated,
// in deterministic order.
func (sys *System) AllUnitObjects() []lang.ObjID {
	seen := make(map[lang.ObjID]bool)
	var out []lang.ObjID
	for _, u := range sys.Units {
		for _, obj := range u.objects {
			if !seen[obj] {
				seen[obj] = true
				out = append(out, obj)
			}
		}
	}
	return out
}

// PartitionDB returns one site's authoritative share of the logical
// database: every treaty-unit object's replicated base value plus the
// site's own delta object value. In a multi-process cluster, folding the
// per-site partitions (base from any site plus every site's own deltas)
// reconstructs the consolidated database without any process seeing
// another's memory.
func (sys *System) PartitionDB(site int) lang.Database {
	out := lang.Database{}
	st := sys.Stores[site]
	for _, obj := range sys.AllUnitObjects() {
		out[obj] = st.Get(obj)
		d := lang.DeltaObj(obj, site)
		out[d] = st.Get(d)
	}
	return out
}

// FoldedDB consolidates the final logical database across all sites for
// every treaty unit (base value plus each site's delta).
func (sys *System) FoldedDB() lang.Database {
	out := lang.Database{}
	for _, u := range sys.Units {
		//homeo:nondet map-to-map merge; the result is a map, order invisible
		for obj, v := range sys.foldUnit(u) {
			out[obj] = v
		}
	}
	return out
}

// CheckReplayEquivalence verifies the paper's Theorem 3.8 observational
// equivalence on the recorded commit log: applying the committed
// transactions serially (in commit-log order) to the initial logical
// database must reproduce the final consolidated database. The run must
// have EnableLog set; ModeLocal provides no cross-site consistency, so
// the check does not apply to it.
func (sys *System) CheckReplayEquivalence() error {
	if !sys.Opts.EnableLog {
		return fmt.Errorf("homeostasis: replay check needs Options.EnableLog")
	}
	if sys.Opts.Mode == ModeLocal {
		return fmt.Errorf("homeostasis: replay check does not apply to the local baseline")
	}
	if sys.CommitLog.Len() == 0 {
		return fmt.Errorf("homeostasis: replay check with empty commit log")
	}
	replay := sys.W.InitialDB()
	var err error
	sys.CommitLog.All(func(_ int, c *Committed) bool {
		if c.Apply == nil {
			// Recovered and adopted entries carry no replay closure; the
			// class-registry replay (homeo.CheckMergedReplay) covers them.
			err = fmt.Errorf("homeostasis: replay check cannot re-execute recovered entry %s (use the class-registry replay)", c.Name)
			return false
		}
		c.Apply(replay, c.Args)
		return true
	})
	if err != nil {
		return err
	}
	// Sorted walk so a mismatch always names the same (first) object.
	folded := sys.FoldedDB()
	for _, obj := range folded.Objects() {
		if got, v := replay.Get(obj), folded[obj]; got != v {
			return fmt.Errorf("homeostasis: replay mismatch on %s: protocol %d, serial replay %d (%d commits)",
				obj, v, got, sys.CommitLog.Len())
		}
	}
	return nil
}
