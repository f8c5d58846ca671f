package homeostasis

// This file is the elastic-topology layer: the site set is a first-class
// dynamic object of a multi-process cluster, whose Systems own one site
// each. A membership epoch versions a System's view of its sites; a join
// grows every per-site structure online (the joining System coordinates a
// two-phase quiesce over the existing membership), a drain absorbs a
// leaving site's deltas into the replicated base through winnerless
// synchronization rounds before fencing it out. Both are built on the same
// round-grant machinery the cleanup phase uses, so coordinator death
// mid-operation aborts or repairs through the existing failover paths
// (grant expiry, rejoin handshake). A System holding every site of one
// process has no membership to change (see membership).

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/store"
	"repro/internal/treaty"
	"repro/internal/wal"
	"repro/internal/workload"
)

// siteStatus is one site's membership state. Statuses only move forward
// (active → draining → gone); slots are never reused, so per-site arrays
// and the merged commit log stay stably indexed after a drain.
type siteStatus int

const (
	// siteActive serves traffic and participates in every round.
	siteActive siteStatus = iota
	// siteDraining is fenced for new submissions while its deltas are
	// absorbed into the base; it still answers rounds so in-flight state
	// stays consistent.
	siteDraining
	// siteGone has left the membership: excluded from scatters, zero
	// treaty slack, submissions refused.
	siteGone
)

func (s siteStatus) String() string {
	switch s {
	case siteActive:
		return "active"
	case siteDraining:
		return "draining"
	case siteGone:
		return "gone"
	}
	return "?"
}

// Epoch returns this process's membership epoch: a monotonic counter
// bumped on every membership change it observes (join admissions, drain
// completions). Epochs are per-process observations, not a consensus
// value — clients use a bump as a cue to refresh their site list.
func (sys *System) Epoch() int64 { return sys.epoch }

// NSites reports the current membership width: boot sites plus admitted
// joins. Drained sites keep their slots (indexes are never reused), so
// the width only grows.
func (sys *System) NSites() int { return sys.Opts.Topo.NSites() }

// SiteStatusName reports the site's membership status ("active",
// "draining", "gone") for stats surfaces.
func (sys *System) SiteStatusName(site int) string {
	if site < 0 || site >= len(sys.status) {
		return "?"
	}
	return sys.status[site].String()
}

// ActiveSites counts sites currently accepting submissions.
func (sys *System) ActiveSites() int {
	n := 0
	for _, s := range sys.status {
		if s == siteActive {
			n++
		}
	}
	return n
}

// SetSiteAddrs records the peer base URLs of the initial membership (the
// homeo layer fills them from its fabric configuration) so membership WAL
// records and join admissions can rebuild transports on recovery.
func (sys *System) SetSiteAddrs(addrs []string) {
	for k := 0; k < len(addrs) && k < len(sys.siteAddrs); k++ {
		sys.siteAddrs[k] = addrs[k]
	}
}

// SiteAddrs returns a copy of the known per-site peer base URLs ("" for
// in-process sites).
func (sys *System) SiteAddrs() []string {
	return append([]string(nil), sys.siteAddrs...)
}

// membership returns the fabric's membership half for op, or refuses op:
// the baselines keep no treaties, and a System that holds every site of
// one process behind fabric.Local has no peers to join, leave or rejoin.
// It is the one place elastic operations are refused.
func (sys *System) membership(op string) (fabric.Elastic, error) {
	if err := sys.RequireTreaties(op); err != nil {
		return nil, err
	}
	if sys.elastic == nil {
		return nil, fmt.Errorf("homeostasis: %s needs a multi-process cluster, one site per System over the site fabric (homeo: Options.Fabric)", op)
	}
	return sys.elastic, nil
}

// MarkSiteGone marks a membership slot gone before serving: a joiner
// booted from a topology snapshot that already contains drained sites
// must fence those slots locally (zero treaty slack, excluded from
// scatters) even though it never witnessed the drain. Not WAL-logged or
// epoch-bumped on its own — the next membership change this process
// observes logs the whole table. A slot out of range or already gone is
// left alone.
func (sys *System) MarkSiteGone(site int) error {
	el, err := sys.membership("fencing a drained site")
	if err != nil || site < 0 || site >= len(sys.status) || sys.status[site] == siteGone {
		return err
	}
	sys.status[site] = siteGone
	el.MarkGone(site)
	return nil
}

// anyInactive reports whether any site has left the active membership,
// which switches treaty generation to membership-aware slack weights.
// The default all-active path is untouched, so fixed-topology runs (and
// the experiment goldens) are byte-identical.
func (sys *System) anyInactive() bool {
	for _, s := range sys.status {
		if s != siteActive {
			return true
		}
	}
	return false
}

// membershipWeights overlays the membership onto a slack weight vector:
// inactive sites are zeroed (a draining or gone site must not receive
// slack it can no longer spend), and if that leaves nothing the active
// sites split equally.
func (sys *System) membershipWeights(base []int64) []int64 {
	n := sys.Opts.Topo.NSites()
	w := make([]int64, n)
	total := int64(0)
	for k := 0; k < n && k < len(base); k++ {
		if k < len(sys.status) && sys.status[k] == siteActive {
			w[k] = base[k]
			total += base[k]
		}
	}
	if total > 0 {
		return w
	}
	for k := 0; k < n; k++ {
		if k < len(sys.status) && sys.status[k] == siteActive {
			w[k] = 1
		}
	}
	return w
}

// growUnit widens the unit's per-site slices to n sites: carried-over
// demand counters, and for each new slot the localPin of a partition with
// zero deltas, so an admitted site's first local write violates and
// renegotiates a real generation spanning the grown membership. The
// demand slice is rebuilt via Load/Store (atomics must not be copied by
// append); safe because growth runs under the execution right.
func (u *unitState) growUnit(n int) error {
	if u.demand != nil && len(u.demand) < n {
		nd := make([]siteDemand, n)
		for i := range u.demand {
			nd[i].burn.Store(u.demand[i].burn.Load())
			nd[i].violations.Store(u.demand[i].violations.Load())
		}
		u.demand = nd
	}
	for site := len(u.treaties); site < n; site++ {
		u.treaties = append(u.treaties, treaty.CompiledLocal{})
		if err := u.setSiteTreaty(site, localPin(u.objects, site, lang.Database(nil))); err != nil {
			return fmt.Errorf("join treaty: %w", err)
		}
	}
	return nil
}

// growSystem widens every per-site structure by one slot for an admitted
// joiner and bumps the membership epoch. Must run under the execution
// right with every unit quiesced (the join prepare grant holds them), on a
// System that has the membership half (its callers asked membership).
func (sys *System) growSystem(addr string) int {
	site := sys.Opts.Topo.Grow()
	n := sys.Opts.Topo.NSites()
	st := store.New(sys.E, sys.W.InitialDB())
	st.LockTimeout = sys.Opts.LockTimeout
	sys.Stores = append(sys.Stores, st)
	sys.CPUs = append(sys.CPUs, sys.E.NewResource(sys.Opts.CPUPerSite))
	sys.status = append(sys.status, siteActive)
	sys.siteAddrs = append(sys.siteAddrs, addr)
	// The per-(object, site) delta-name cache was sized at the old width.
	//homeo:nondet per-key cache fill; no cross-key effects and nothing escapes
	for obj, names := range sys.deltaNames {
		for k := len(names); k < n; k++ {
			names = append(names, lang.DeltaObj(obj, k))
		}
		sys.deltaNames[obj] = names
	}
	for _, u := range sys.Units {
		if err := u.growUnit(n); err != nil {
			// Unreachable for the pin shape; surfaced as a degradation so
			// the slot is at least present (empty treaty slots fail loudly
			// at the next evaluation).
			sys.Col.RecordTreatyGenFailure()
		}
	}
	sys.epoch++
	sys.elastic.AddSite(addr)
	return site
}

// logMembership appends the full membership table (written whole, not as
// a diff, so replay just keeps the last record) to the site's WAL.
func (sys *System) logMembership(site int) {
	l := sys.walFor(site)
	if l == nil {
		return
	}
	rec := wal.MembershipRecord{
		Epoch: sys.epoch,
		Width: sys.Opts.Topo.NSites(),
		Clock: sys.clock,
		Addrs: append([]string(nil), sys.siteAddrs...),
	}
	rec.Status = make([]int, len(sys.status))
	for k, s := range sys.status {
		rec.Status[k] = int(s)
	}
	_ = l.AppendMembership(rec)
}

// JoinSite handles one phase of a joining site's membership handshake.
//
// Prepare quiesces every unit under a grant keyed by the joiner's round
// id — exactly the cleanup phase's freeze, so a joiner that dies between
// the phases is failed over by the ordinary grant expiry (units
// unfreeze, the join aborts, state and treaties untouched) — and streams
// back the partition cut: every unit's treaty generation and replicated
// base values. Activate grows the membership (idempotent: width-guarded
// against re-delivery), logs it, and releases the quiesce.
func (n *siteNode) JoinSite(m fabric.JoinSite) (fabric.JoinReply, error) {
	sys := n.sys
	if _, err := sys.membership("admitting a joiner"); err != nil {
		return fabric.JoinReply{}, err
	}
	sys.observeClock(m.Clock)
	switch m.Phase {
	case fabric.JoinPrepare:
		if m.Site != sys.Opts.Topo.NSites() {
			return fabric.JoinReply{}, fmt.Errorf("homeostasis: joiner index %d does not match cluster width %d", m.Site, sys.Opts.Topo.NSites())
		}
		ids := make([]int, len(sys.Units))
		for i := range ids {
			ids[i] = i
		}
		if _, err := sys.grantRound(m.Round, ids); err != nil {
			return fabric.JoinReply{}, err
		}
		st := sys.Stores[n.site]
		rep := fabric.JoinReply{Epoch: sys.epoch, Units: make([]fabric.JoinUnit, 0, len(sys.Units))}
		for _, u := range sys.Units {
			base := make(lang.Database, len(u.objects))
			for _, obj := range u.objects {
				base[obj] = st.Get(obj)
			}
			rep.Units = append(rep.Units, fabric.JoinUnit{Unit: u.id, Version: u.version, Base: base})
		}
		// The cut externalizes this site's state: flush first.
		sys.walFlush(n.site)
		rep.Clock = sys.tickClock()
		return rep, nil
	case fabric.JoinActivate:
		g := sys.rounds[m.Round]
		if g == nil && sys.Opts.Topo.NSites() <= m.Site {
			// The prepare grant expired (the joiner stalled past the TTL):
			// its cut is stale, refuse the admission.
			return fabric.JoinReply{}, fmt.Errorf("homeostasis: join round %v expired before activation", m.Round)
		}
		if sys.Opts.Topo.NSites() <= m.Site {
			sys.growSystem(m.Addr)
		}
		if g != nil {
			sys.closeGrant(m.Round, g)
		}
		sys.logMembership(n.site)
		sys.walFlush(n.site)
		return fabric.JoinReply{Clock: sys.tickClock(), Epoch: sys.epoch}, nil
	}
	return fabric.JoinReply{}, fmt.Errorf("homeostasis: unknown join phase %d", m.Phase)
}

// DrainSite marks the drained site gone, bumps the epoch (idempotent: a
// re-delivered announcement changes nothing), and excludes it from future
// scatters.
func (n *siteNode) DrainSite(m fabric.DrainSite) (fabric.DrainReply, error) {
	sys := n.sys
	el, err := sys.membership("recording a drain")
	if err != nil {
		return fabric.DrainReply{}, err
	}
	sys.observeClock(m.Clock)
	if m.Site < 0 || m.Site >= len(sys.status) {
		return fabric.DrainReply{}, fmt.Errorf("homeostasis: drain names unknown site %d", m.Site)
	}
	if sys.status[m.Site] != siteGone {
		sys.status[m.Site] = siteGone
		sys.epoch++
		el.MarkGone(m.Site)
	}
	sys.logMembership(n.site)
	sys.walFlush(n.site)
	return fabric.DrainReply{Clock: sys.tickClock(), Epoch: sys.epoch}, nil
}

// JoinCluster admits this System's site into the running cluster,
// coordinated by the joining side: the caller is a fresh System booted at
// width n+1 that owns site n. Returns the joined site's index.
//
// Consistency of the cut: an in-flight cleanup round keeps at least its
// coordinator's units negotiating, so a prepare overlapping it is
// refused busy; a round starting mid-prepare hits an already-frozen peer
// on its all-to-all collect and aborts before installing. Every
// successful prepare therefore returns an identical cut. The joiner
// lands with that base, zero deltas, and its own slots pinned at zero —
// indistinguishable from a site that was quiescent since the cut, so
// replay equivalence is unaffected by the epoch change.
func (sys *System) JoinCluster(p rt.Proc, addr string) (int, error) {
	el, err := sys.membership("joining a site")
	if err != nil {
		return -1, err
	}
	joiner := sys.self
	if sys.status[joiner] != siteActive {
		return -1, fmt.Errorf("homeostasis: site %d is %v: %w", joiner, sys.status[joiner], fabric.ErrSiteGone)
	}
	backoff := int64(sys.Opts.LocalExecTime)
	for attempt := 0; ; attempt++ {
		sys.roundSeq++
		rid := fabric.RoundID{Site: joiner, Seq: sys.roundSeq}
		prep := fabric.JoinSite{Round: rid, Clock: sys.tickClock(), Site: joiner, Addr: addr, Phase: fabric.JoinPrepare}
		replies, err := el.Join(p, joiner, prep)
		if err != nil {
			// Release any peer that froze before the failure, then back
			// off and retry — busy peers mean an in-flight round.
			_ = el.Abort(p, joiner, fabric.AbortRound{Round: rid, Clock: sys.tickClock()})
			if !errors.Is(err, fabric.ErrBusy) || attempt >= 20 {
				return -1, fmt.Errorf("homeostasis: join prepare: %w", err)
			}
			p.Sleep(rt.Duration(backoff + sys.E.Rand().Int63n(backoff*4+1)))
			continue
		}
		var cut []fabric.JoinUnit
		for k := range replies {
			sys.observeClock(replies[k].Clock)
			if cut == nil && k != joiner && len(replies[k].Units) > 0 {
				cut = replies[k].Units
			}
		}
		// Adopt the cut while the peers are still quiesced: this System
		// booted with its own slot.
		for _, ju := range cut {
			if ju.Unit < 0 || ju.Unit >= len(sys.Units) {
				continue
			}
			u := sys.Units[ju.Unit]
			sys.installFolded(joiner, u.objects, ju.Base, nil)
			if ju.Version > u.version {
				u.version = ju.Version
			}
			// Pin the fresh slot at its zero-delta state so the first local
			// write resynchronizes under a treaty negotiated by the full
			// grown membership.
			sys.degradeToLocalPin(u, joiner)
		}
		act := prep
		act.Phase = fabric.JoinActivate
		act.Clock = sys.tickClock()
		// Activation is idempotent (width-guarded). A peer that misses both
		// deliveries unfreezes via grant expiry and refuses the joiner's
		// rounds until the join is re-driven.
		var acts []fabric.JoinReply
		if aerr := sys.scatterTwice(func() (err error) {
			acts, err = el.Join(p, joiner, act)
			return err
		}); aerr != nil {
			return -1, fmt.Errorf("homeostasis: join activate: %w", aerr)
		}
		for k := range acts {
			sys.observeClock(acts[k].Clock)
			if acts[k].Epoch > sys.epoch {
				sys.epoch = acts[k].Epoch
			}
		}
		sys.logMembership(joiner)
		sys.walFlush(joiner)
		return joiner, nil
	}
}

// Drain retires this System's site: new submissions are fenced, every
// unit's deltas are absorbed into the replicated base through winnerless
// rounds, and a Drain broadcast marks the site gone at every peer. The site
// keeps its index — membership slots are never reused — so per-site state
// and the merged commit log stay stably indexed; it keeps answering peer
// reads (its WAL tail, /v1/peer/log) until the process is torn down.
func (sys *System) Drain(p rt.Proc, site int) error {
	el, err := sys.membership("draining a site")
	if err != nil {
		return err
	}
	if site < 0 || site >= sys.Opts.Topo.NSites() {
		return fmt.Errorf("homeostasis: drain of unknown site %d", site)
	}
	if site != sys.self {
		return fmt.Errorf("homeostasis: this process owns site %d and cannot drain site %d", sys.self, site)
	}
	if sys.status[site] != siteActive {
		return fmt.Errorf("homeostasis: site %d already %v: %w", site, sys.status[site], fabric.ErrSiteGone)
	}
	// Fence: new submissions at this site refuse from here on (and
	// executions already admitted re-check after every park point);
	// in-flight ones finish under the treaty protocol before each unit's
	// absorb round collects (the round-1 quiesce refuses while inflight).
	sys.status[site] = siteDraining
	for _, u := range sys.Units {
		if err := sys.winnerlessRound(p, site, u); err != nil {
			return fmt.Errorf("homeostasis: drain absorb of unit %d: %w", u.id, err)
		}
	}
	m := fabric.DrainSite{Site: site, Clock: sys.tickClock()}
	var replies []fabric.DrainReply
	if err := sys.scatterTwice(func() (err error) {
		replies, err = el.Drain(p, site, m)
		return err
	}); err != nil {
		return fmt.Errorf("homeostasis: drain broadcast: %w", err)
	}
	for k := range replies {
		sys.observeClock(replies[k].Clock)
		if replies[k].Epoch > sys.epoch {
			sys.epoch = replies[k].Epoch
		}
	}
	if sys.status[site] != siteGone {
		sys.status[site] = siteGone
		sys.epoch++
		el.MarkGone(site)
	}
	sys.logMembership(site)
	sys.walFlush(site)
	return nil
}

// winnerlessRound has site coordinate one round without a winner over the
// unit (see negotiate), first waiting out any round that holds the unit and
// backing off, as a violator does, while a coordinator in another process
// wins the freeze.
func (sys *System) winnerlessRound(p rt.Proc, site int, u *unitState) error {
	units, req := []*unitState{u}, workload.Request{Units: []int{u.id}}
	backoff := int64(sys.Opts.LocalExecTime)
	for attempt := 0; ; attempt++ {
		sys.waitForUnit(p, u)
		_, err := sys.negotiate(p, site, units, req)
		if err == nil || !errors.Is(err, fabric.ErrBusy) || attempt >= 20 {
			return err
		}
		p.Sleep(rt.Duration(backoff*int64(site+1) + sys.E.Rand().Int63n(backoff*4+1)))
	}
}
