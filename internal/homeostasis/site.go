package homeostasis

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/treaty"
	"repro/internal/wal"
)

// This file is the site-actor half of the fabric refactor: each site
// owns its base+delta store partition behind a siteNode that answers the
// peer protocol's typed messages instead of being reached through cross-
// site memory access: the round's CollectState, InstallState,
// InstallTreaties and AbortRound and recovery's Rejoin here, membership's
// JoinSite and DrainSite in membership.go. The coordinator half lives in
// exec.go: negotiate runs every round, with or without a winner.

// roundGrant tracks one synchronization round this process participates
// in: the units it freezes and, per local site, the delta values reported
// in the round-1 reply. The install subtracts the reported values from
// the current ones, so local commits to non-frozen objects that race a
// remote round's network gap are preserved instead of overwritten (in
// process, the round is atomic in virtual time and the drift is always
// zero).
type roundGrant struct {
	units []int
	// remote marks a round granted to a coordinator in another process;
	// installing its treaties (or aborting) releases the units here. For
	// locally coordinated rounds the coordinator releases them itself,
	// after round 2's communication completes.
	remote bool
	// sites is the round's per-site record, indexed by site: grown on
	// first touch (at), so an in-process round pays one slice and a
	// one-site process only its own slot.
	sites []grantSite
	// winner is the round's winning transaction (carried by InstallState)
	// and winnerClock its commit timestamp: if the coordinator dies after
	// round 1 completed here, the failover adopts the commit into this
	// site's log instead of losing it.
	winner      *fabric.WinnerCommit
	winnerClock int64
}

// grantSite is what one local site contributed to a round.
type grantSite struct {
	// reported holds the delta values of the site's round-1 reply.
	reported lang.Database
	// installed records that the site already applied the round's
	// InstallState, making re-delivery a no-op so the coordinator can
	// safely retry a partially failed install scatter.
	installed bool
}

// at returns the round's record for a site.
func (g *roundGrant) at(site int) *grantSite {
	for site >= len(g.sites) {
		g.sites = append(g.sites, grantSite{})
	}
	return &g.sites[site]
}

// installedAt reports whether the site applied the round's InstallState.
func (g *roundGrant) installedAt(site int) bool {
	return site < len(g.sites) && g.sites[site].installed
}

// grantTTL bounds how long a site stays frozen for a remote round whose
// coordinator vanished mid-round (process crash, partition). On expiry
// the units are released and the degradation is counted; the next
// violation resynchronizes them.
const grantTTL = 30 * rt.Second

// tickClock advances the Lamport clock to a fresh timestamp.
func (sys *System) tickClock() int64 {
	sys.clock++
	return sys.clock
}

// observeClock merges a received Lamport timestamp.
func (sys *System) observeClock(c int64) {
	if c > sys.clock {
		sys.clock = c
	}
}

// newRound registers a locally coordinated round over the given units
// and returns its id. The caller provides the grant, blank, and leaves it
// alone until the round is out of sys.rounds.
func (sys *System) newRound(site int, units []int, g *roundGrant) fabric.RoundID {
	sys.roundSeq++
	rid := fabric.RoundID{Site: site, Seq: sys.roundSeq}
	g.units = units
	sys.rounds[rid] = g
	return rid
}

// grantRound is a site's answer to the first message of a round over the
// given units: unless the round is already granted (its coordinator is
// local and registered it before scattering, or this is a re-delivery) the
// units are frozen under a remote grant with its expiry armed, or the round
// is refused with ErrBusy because another one holds some of them. It then
// refuses busy until the units are quiet: what the site replies is a
// consistent cut of its partition, and an execution already past its Begin
// on a frozen unit could still commit after the reply and be folded away by
// the install. The coordinator aborts, backs off and retries; new
// executions are parked by the negotiating flag meanwhile.
func (sys *System) grantRound(rid fabric.RoundID, units []int) (*roundGrant, error) {
	g := sys.rounds[rid]
	if g == nil {
		for _, id := range units {
			if id < 0 || id >= len(sys.Units) {
				return nil, fmt.Errorf("homeostasis: %v names unknown unit %d", rid, id)
			}
			if sys.Units[id].negotiating {
				return nil, fabric.ErrBusy
			}
		}
		g = &roundGrant{units: units, remote: true}
		for _, id := range units {
			sys.Units[id].negotiating = true
		}
		sys.rounds[rid] = g
		sys.scheduleGrantExpiry(rid)
	}
	for _, id := range units {
		if id >= 0 && id < len(sys.Units) && sys.Units[id].inflight > 0 {
			return nil, fabric.ErrBusy
		}
	}
	return g, nil
}

// closeGrant releases a granted round: clear the units' negotiating flags
// and wake their waiters.
func (sys *System) closeGrant(rid fabric.RoundID, g *roundGrant) {
	delete(sys.rounds, rid)
	for _, id := range g.units {
		if id < 0 || id >= len(sys.Units) {
			continue
		}
		u := sys.Units[id]
		u.negotiating = false
		u.neg = nil
		sys.wakeUnitWaiters(u)
	}
}

// scheduleGrantExpiry arms the safety net for a remote grant: if the
// coordinator neither closes nor aborts the round within the TTL, it is
// presumed dead and the grant fails over (see failoverGrant). A rejoin
// handshake from a restarted coordinator triggers the same failover
// immediately.
func (sys *System) scheduleGrantExpiry(rid fabric.RoundID) {
	sys.E.After(grantTTL, func() {
		g := sys.rounds[rid]
		if g == nil || !g.remote {
			return
		}
		sys.Col.RecordFabricError()
		sys.failoverGrant(rid, g)
	})
}

// failoverGrant resolves a remote round whose coordinator vanished.
// Two cases, by how far the round got at this site:
//
//   - Round 1 never closed here (no InstallState): nothing was folded or
//     committed locally, so the grant is simply released — state and
//     treaties are untouched and execution resumes under the current
//     generation.
//   - The state install completed: the base already moved to the round's
//     consolidated values with the winning transaction applied, but round
//     2's treaties never arrived. The winner is adopted into this site's
//     commit log (keyed by round id, so a merged log dedups it against
//     other adopters and the coordinator's own WAL), and only then — as
//     the last resort the degradation is — the units are pinned at their
//     current local values: every next write violates and re-enters
//     negotiation, which regenerates real treaties from a fresh fold.
func (sys *System) failoverGrant(rid fabric.RoundID, g *roundGrant) {
	site := sys.self
	if site >= 0 && g.installedAt(site) {
		if g.winner != nil {
			sys.adoptWinner(site, rid, g)
			sys.Col.RecordRoundAdopted()
		} else {
			// A winnerless install (a drain's absorb round):
			// the base moved but there is no commit to adopt; the pin
			// below still applies — resuming the pre-round treaties over
			// the moved base would be unsound.
			sys.Col.RecordRoundAborted()
		}
		for _, id := range g.units {
			if id >= 0 && id < len(sys.Units) {
				sys.degradeToLocalPin(sys.Units[id], site)
			}
		}
	} else {
		sys.Col.RecordRoundAborted()
	}
	sys.closeGrant(rid, g)
}

// adoptWinner appends the failed-over round's winning commit to the
// site's log and WAL. Apply stays nil: the entry replays through the
// class registry (the state itself is already installed and durable via
// the round's install record).
func (sys *System) adoptWinner(site int, rid fabric.RoundID, g *roundGrant) {
	w := g.winner
	ridCopy := rid
	if sys.Opts.EnableLog {
		sys.CommitLog = append(sys.CommitLog, Committed{
			Name:  w.Class,
			Args:  w.Args,
			Site:  w.Site,
			Units: w.Units,
			Log:   w.Log,
			Clock: g.winnerClock,
			Round: &ridCopy,
		})
	}
	if l := sys.walFor(site); l != nil {
		_ = l.AppendCommit(wal.CommitRecord{
			Class: w.Class, Args: w.Args, Site: w.Site, Units: w.Units,
			Log: w.Log, Clock: g.winnerClock,
			Round: &wal.RoundID{Site: rid.Site, Seq: rid.Seq},
		})
		_ = l.Flush()
	}
}

// degradeToLocalPin installs the site's localPin on its own partition as
// it stands: no fold, no peer.
func (sys *System) degradeToLocalPin(u *unitState, site int) {
	l := localPin(u.objects, site, sys.Stores[site])
	if applied, err := u.installSiteTreaty(site, l, u.version); err == nil && applied {
		sys.logTreaty(site, u.id, l, u.version, sys.clock, nil)
		sys.walFlush(site)
	}
}

// Node returns the site's fabric actor. The actor shares the System's
// state and must only be driven under the runtime's execution right (the
// transports guarantee this).
func (sys *System) Node(site int) fabric.Node { return &siteNode{sys: sys, site: site} }

// SetFabric makes the System the owner of site self of a multi-process
// cluster, reached over t (fabric.HTTP between processes, fabric.Sim on one
// simulator): without it every site is in-process behind fabric.Local.
// Call before the system serves traffic.
func (sys *System) SetFabric(t fabric.Elastic, self int) {
	sys.fab, sys.elastic = t, t
	sys.self = self
}

// siteNode is one site's actor: it answers the fabric's typed messages
// against the site's store partition and treaty slots.
type siteNode struct {
	sys  *System
	site int
}

// CollectState begins a round at this site. For a locally coordinated
// round (the coordinator registered it before scattering) the units are
// already frozen; for a remote coordinator the handler freezes them here
// or refuses with ErrBusy. Either way the reply carries the site's own
// delta values for the round's footprint, which are also remembered so
// InstallState can preserve concurrent drift.
//
//homeo:externalizes
func (n *siteNode) CollectState(m fabric.CollectState) (fabric.StateReply, error) {
	sys := n.sys
	sys.observeClock(m.Clock)
	g, err := sys.grantRound(m.Round, m.Units)
	if err != nil {
		//homeo:noexternalize busy or validation refusal; no state ships
		return fabric.StateReply{}, err
	}
	// The reply is handed to the transport, which reads it after this
	// handler returned (and off the execution right over HTTP): a fresh
	// map, never scratch.
	vals := sys.ownDeltas(n.site, m.Objs)
	g.at(n.site).reported = vals
	// The reply externalizes this site's delta values: flush the WAL so a
	// crash after the reply cannot lose a commit the round's fold depends
	// on (flush-before-externalize, see internal/wal).
	sys.walFlush(n.site)
	return fabric.StateReply{Clock: sys.tickClock(), Values: vals}, nil
}

// ownDeltas reads the site's own delta object of every given object.
//
//homeo:hotpath
func (sys *System) ownDeltas(site int, objs []lang.ObjID) lang.Database {
	st := sys.Stores[site]
	vals := make(lang.Database, len(objs))
	for _, obj := range objs {
		d := sys.deltaName(obj, site)
		vals[d] = st.Get(d)
	}
	return vals
}

// InstallState installs the folded consolidated state into the site's
// partition: base objects take the folded logical values, every delta
// snapshot resets to zero, and any drift the site's own delta accumulated
// since its round-1 report (multi-process network gap only) is carried
// over so concurrent local commits survive the install.
//
//homeo:externalizes
func (n *siteNode) InstallState(m fabric.InstallState) error {
	sys := n.sys
	sys.observeClock(m.Clock)
	var reported lang.Database
	g := sys.rounds[m.Round]
	if g != nil {
		g.winner = m.Winner
		g.winnerClock = m.Clock
		gs := g.at(n.site)
		if gs.installed {
			// Re-delivery (the coordinator retried a partially failed
			// scatter): already applied, and applying the drift twice
			// would corrupt the partition.
			//homeo:noexternalize re-delivery; the first delivery's flush covers this ack
			return nil
		}
		gs.installed = true
		reported = gs.reported
	}
	nSites := sys.Opts.Topo.NSites()
	drifts := sys.installFolded(n.site, m.Objs, m.Folded, reported)
	if l := sys.walFor(n.site); l != nil {
		rec := wal.InstallRecord{
			Round: wal.RoundID{Site: m.Round.Site, Seq: m.Round.Seq},
			Clock: m.Clock, Sites: nSites, Drift: drifts,
			Objs: make([]string, 0, len(m.Objs)),
			Base: make(map[string]int64, len(m.Objs)),
		}
		for _, obj := range m.Objs {
			rec.Objs = append(rec.Objs, string(obj))
			rec.Base[string(obj)] = m.Folded.Get(obj)
		}
		_ = l.AppendInstall(rec)
	}
	// The ack externalizes the install: the coordinator proceeds to
	// round 2 (or the client is told T' committed) on its strength.
	sys.walFlush(n.site)
	return nil
}

// installFolded overwrites the site's copy of every given object with its
// folded value and zeroes all its delta snapshots, carrying over whatever
// the site's own delta moved since it was reported (nil: nothing was).
// Returns the carried drifts by delta name, nil when there are none.
//
//homeo:hotpath
func (sys *System) installFolded(site int, objs []lang.ObjID, folded, reported lang.Database) map[string]int64 {
	st := sys.Stores[site]
	nSites := sys.Opts.Topo.NSites()
	var drifts map[string]int64
	for _, obj := range objs {
		own := sys.deltaName(obj, site)
		cur := st.Get(own)
		st.Apply(obj, folded.Get(obj))
		for k := 0; k < nSites; k++ {
			st.Apply(sys.deltaName(obj, k), 0)
		}
		if reported != nil {
			if drift := cur - reported.Get(own); drift != 0 {
				st.Apply(own, drift)
				if drifts == nil {
					drifts = make(map[string]int64)
				}
				drifts[string(own)] = drift
			}
		}
	}
	return drifts
}

// InstallTreaties installs this site's new local treaties for the
// round's units; for a remote round it then releases the units (the
// round is over from this site's point of view — the coordinator's ack
// wait does not gate local progress).
//
//homeo:externalizes
func (n *siteNode) InstallTreaties(m fabric.InstallTreaties) error {
	sys := n.sys
	sys.observeClock(m.Clock)
	var firstErr error
	for _, ut := range m.Units {
		if ut.Unit < 0 || ut.Unit >= len(sys.Units) {
			if firstErr == nil {
				firstErr = fmt.Errorf("homeostasis: treaty install names unknown unit %d", ut.Unit)
			}
			continue
		}
		applied, err := sys.Units[ut.Unit].installSiteTreaty(n.site, ut.Local, ut.Version)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if applied {
			sys.logTreaty(n.site, ut.Unit, ut.Local, ut.Version, m.Clock, &m.Round)
		}
	}
	// The ack closes the round at the coordinator: flush so a recovered
	// incarnation of this site resumes under the generation it acked.
	sys.walFlush(n.site)
	if g := sys.rounds[m.Round]; g != nil && g.remote {
		sys.closeGrant(m.Round, g)
	}
	return firstErr
}

// AbortRound releases a remote grant without installing anything.
// Locally coordinated rounds are unwound by their coordinator; unknown
// rounds (already expired or never granted) are a no-op.
//
//homeo:noexternalize aborts ship no durable state; a crash re-aborts via grant expiry
func (n *siteNode) AbortRound(m fabric.AbortRound) error {
	sys := n.sys
	sys.observeClock(m.Clock)
	if g := sys.rounds[m.Round]; g != nil && g.remote {
		sys.closeGrant(m.Round, g)
	}
	return nil
}

// Rejoin answers a restarted site's recovery handshake. The sender's
// previous incarnation is dead, so every round it was coordinating here
// fails over immediately (no need to wait out the grant TTL). The reply
// lists the units the rejoiner must repair before serving: those whose
// treaty generation moved past its recovered version, plus — forced —
// the units of its own just-failed-over rounds whose state install
// completed here (the base moved without a version bump, so version
// comparison alone would miss them).
//
//homeo:externalizes
func (n *siteNode) Rejoin(m fabric.Rejoin) (fabric.RejoinReply, error) {
	sys := n.sys
	sys.observeClock(m.Clock)
	var orphaned []fabric.RoundID
	for rid, g := range sys.rounds {
		if g.remote && rid.Site == m.Site {
			orphaned = append(orphaned, rid)
		}
	}
	sort.Slice(orphaned, func(i, j int) bool { return orphaned[i].Seq < orphaned[j].Seq })
	forced := make(map[int]bool)
	for _, rid := range orphaned {
		g := sys.rounds[rid]
		if sys.self >= 0 && g.installedAt(sys.self) {
			for _, id := range g.units {
				forced[id] = true
			}
		}
		sys.failoverGrant(rid, g)
	}
	units := make([]int, 0, len(m.Versions))
	for id := range m.Versions {
		units = append(units, id)
	}
	sort.Ints(units)
	st := sys.Stores[n.site]
	rep := fabric.RejoinReply{}
	for _, id := range units {
		if id < 0 || id >= len(sys.Units) {
			continue
		}
		u := sys.Units[id]
		if u.version <= m.Versions[id] && !forced[id] {
			continue
		}
		base := make(lang.Database, len(u.objects))
		for _, obj := range u.objects {
			base[obj] = st.Get(obj)
		}
		rep.Units = append(rep.Units, fabric.RejoinUnit{
			Unit: id, Version: u.version, Base: base, Force: forced[id],
		})
	}
	// Adoption may have appended to the WAL; the reply externalizes it.
	sys.walFlush(n.site)
	rep.Clock = sys.tickClock()
	return rep, nil
}

// installSiteTreaty compiles and installs one site's local treaty slot,
// reporting whether the install was applied. Versions only move forward:
// a stale duplicate delivery cannot roll a newer treaty back (it reports
// applied=false).
func (u *unitState) installSiteTreaty(site int, l treaty.Local, version int64) (bool, error) {
	if ok, err := u.admitsTreaty(site, version); !ok {
		return false, err
	}
	if err := u.setSiteTreaty(site, l); err != nil {
		return false, err
	}
	u.version = max(u.version, version)
	return true, nil
}

// admitsTreaty is installSiteTreaty's guard: the site must have a slot,
// and a generation older than the unit's is dropped without error.
func (u *unitState) admitsTreaty(site int, version int64) (bool, error) {
	if site < 0 || site >= len(u.treaties) {
		return false, fmt.Errorf("homeostasis: unit %d has no treaty slot for site %d", u.id, site)
	}
	return version >= u.version, nil
}

// setSiteTreaty compiles l into the site's slot, guard and version
// aside (see installSiteTreaty; WAL replay runs the two apart). The commit
// check reads a treaty's objects out of the site's own store, so a treaty
// over anything but the site's partition — base objects at site 0, obj@dk at
// site k, which is what a derived treaty mentions (treaty.BuildTemplate
// splits by placement) — would be evaluated against stale replica values:
// one a peer sent or a log held is refused.
func (u *unitState) setSiteTreaty(site int, l treaty.Local) error {
	for i := range l.Constraints {
		for _, t := range l.Constraints[i].Terms {
			if at := placement(t.Obj); at != site {
				return fmt.Errorf("homeostasis: unit %d site %d: treaty mentions %s, an object of site %d",
					u.id, site, t.Obj, at)
			}
		}
	}
	c, err := treaty.Compile(l)
	if err != nil {
		return fmt.Errorf("homeostasis: unit %d site %d: %w", u.id, site, err)
	}
	u.treaties[site] = c
	return nil
}
