package homeostasis

import (
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/treaty"
	"repro/internal/wal"
)

// This file makes sites durable: each in-process site appends committed
// transactions, synchronization-round state installs, and installed
// treaty generations to a per-site write-ahead log (internal/wal), and a
// restarted process recovers by deterministic reboot (same seed, same
// class registrations → identical units and boot treaties) plus WAL
// replay on top, then rejoins the cluster through the fabric's Rejoin
// handshake. Logging never parks and never charges virtual time, so
// simulator timelines — and the experiment goldens — are byte-identical
// with or without a WAL.

// walPath names site k's log file under dir.
func walPath(dir string, site int) string {
	return filepath.Join(dir, fmt.Sprintf("site-%d.wal", site))
}

// OpenWAL opens the per-site write-ahead logs under dir (only the owned
// site's in a multi-process deployment) and replays any records found
// into the freshly booted system, returning how many were recovered.
//
// Ordering contract: call after every transaction class is registered
// (AddUnits re-derives each class's units and boot treaties and resets
// its objects to their initial values — replay must land on top of that,
// not under it) and before the system serves traffic.
func (sys *System) OpenWAL(dir string, opts wal.Options) (int, error) {
	if len(sys.wals) != 0 {
		return 0, fmt.Errorf("homeostasis: WAL already open")
	}
	sys.walDir, sys.walOpts = dir, opts
	sys.recovering = true
	defer func() { sys.recovering = false }()
	n := sys.Opts.Topo.NSites()
	sys.wals = make([]*wal.Log, n)
	recovered := 0
	var entries []Committed
	openReplay := func(k int) error {
		l, recs, err := wal.Open(walPath(dir, k), opts)
		if err != nil {
			return err
		}
		sys.wals[k] = l
		// State replay per site, in file order (the order it was logged).
		es, err := sys.applyWAL(k, recs)
		if err != nil {
			return err
		}
		entries = append(entries, es...)
		recovered += len(recs)
		return nil
	}
	for k := 0; k < n; k++ {
		if sys.self >= 0 && k != sys.self {
			continue
		}
		if err := openReplay(k); err != nil {
			return recovered, err
		}
	}
	// Membership replay may have grown the cluster past the boot width:
	// sites that joined in a previous life have logs of their own, which
	// an in-process deployment owns and must replay too (growth during
	// these replays extends the loop further).
	for k := n; sys.self < 0 && k < sys.Opts.Topo.NSites(); k++ {
		if err := openReplay(k); err != nil {
			return recovered, err
		}
	}
	// Commit-log rebuild: per-site file order is already clock-ordered;
	// across sites, merge by (Clock, Site) — the same causal order
	// MergeLogs establishes (stable, so same-site ties keep file order).
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Clock != entries[j].Clock {
			return entries[i].Clock < entries[j].Clock
		}
		return entries[i].Site < entries[j].Site
	})
	if sys.Opts.EnableLog {
		sys.CommitLog = append(sys.CommitLog, entries...)
	}
	sys.RecoveredRecords = int64(recovered)
	return recovered, nil
}

// applyWAL replays one site's records against its store partition and
// treaty slots, returning the commit-log entries to rebuild. The clock
// and the local round sequence advance past everything replayed, so the
// recovered incarnation cannot reuse a round id or a timestamp its
// previous life already externalized.
func (sys *System) applyWAL(site int, recs []wal.Record) ([]Committed, error) {
	st := sys.Stores[site]
	var entries []Committed
	seenRound := make(map[fabric.RoundID]bool)
	for i, r := range recs {
		switch r.Kind {
		case wal.KindCommit:
			c, err := r.Commit()
			if err != nil {
				return nil, fmt.Errorf("homeostasis: site %d WAL record %d: %w", site, i, err)
			}
			for _, obj := range sortedNames(c.Writes) {
				st.Apply(lang.ObjID(obj), c.Writes[obj])
			}
			entry := Committed{
				Name: c.Class, Args: c.Args, Site: c.Site,
				Units: c.Units, Log: c.Log, Clock: c.Clock,
			}
			if c.Round != nil {
				rid := fabric.RoundID{Site: c.Round.Site, Seq: c.Round.Seq}
				entry.Round = &rid
				if seenRound[rid] {
					// A crash between adopting a round and acking it can
					// log the same winner twice; one copy suffices.
					sys.observeClock(c.Clock)
					continue
				}
				seenRound[rid] = true
				sys.bumpRoundSeq(rid)
			}
			entries = append(entries, entry)
			sys.observeClock(c.Clock)
		case wal.KindInstall:
			c, err := r.Install()
			if err != nil {
				return nil, fmt.Errorf("homeostasis: site %d WAL record %d: %w", site, i, err)
			}
			for _, obj := range c.Objs {
				st.Apply(lang.ObjID(obj), c.Base[obj])
				for k := 0; k < c.Sites; k++ {
					st.Apply(lang.DeltaObj(lang.ObjID(obj), k), 0)
				}
			}
			for _, obj := range sortedNames(c.Drift) {
				st.Apply(lang.ObjID(obj), c.Drift[obj])
			}
			sys.observeClock(c.Clock)
			sys.bumpRoundSeq(fabric.RoundID{Site: c.Round.Site, Seq: c.Round.Seq})
		case wal.KindTreaty:
			c, err := r.Treaty()
			if err != nil {
				return nil, fmt.Errorf("homeostasis: site %d WAL record %d: %w", site, i, err)
			}
			if c.Unit < 0 || c.Unit >= len(sys.Units) {
				return nil, fmt.Errorf("homeostasis: site %d WAL names unknown unit %d (register every class before OpenWAL)", site, c.Unit)
			}
			l, err := fabric.ConstraintsFromWire(c.Site, c.Constraints)
			if err != nil {
				return nil, fmt.Errorf("homeostasis: site %d WAL record %d: %w", site, i, err)
			}
			if _, err := sys.Units[c.Unit].installSiteTreaty(c.Site, l, c.Version); err != nil {
				return nil, fmt.Errorf("homeostasis: site %d WAL record %d: %w", site, i, err)
			}
			sys.observeClock(c.Clock)
			if c.Round != nil {
				sys.bumpRoundSeq(fabric.RoundID{Site: c.Round.Site, Seq: c.Round.Seq})
			}
		case wal.KindMembership:
			c, err := r.Membership()
			if err != nil {
				return nil, fmt.Errorf("homeostasis: site %d WAL record %d: %w", site, i, err)
			}
			// Records carry the whole table, so replay keeps the last:
			// grow to the recorded width (transports included, using the
			// recorded addrs), then roll statuses forward.
			for sys.Opts.Topo.NSites() < c.Width {
				addr := ""
				if k := sys.Opts.Topo.NSites(); k < len(c.Addrs) {
					addr = c.Addrs[k]
				}
				sys.growSystem(addr)
			}
			for k, a := range c.Addrs {
				if k < len(sys.siteAddrs) && sys.siteAddrs[k] == "" {
					sys.siteAddrs[k] = a
				}
			}
			for k, s := range c.Status {
				if k >= len(sys.status) {
					break
				}
				if st := siteStatus(s); st > sys.status[k] {
					sys.status[k] = st
					if st == siteGone {
						sys.fab.MarkGone(k)
					}
				}
			}
			if c.Epoch > sys.epoch {
				sys.epoch = c.Epoch
			}
			sys.observeClock(c.Clock)
		default:
			return nil, fmt.Errorf("homeostasis: site %d WAL record %d has unknown kind %v", site, i, r.Kind)
		}
	}
	// Replay rewrote stores wholesale; no cached fold survives it.
	sys.invalidateFolds()
	return entries, nil
}

// bumpRoundSeq advances the local round sequence past a replayed round
// id. Overshooting (rounds other sites coordinated) is harmless; reusing
// a sequence is not — a peer still holding the old round's grant would
// alias the new round onto it.
func (sys *System) bumpRoundSeq(rid fabric.RoundID) {
	if rid.Seq > sys.roundSeq {
		sys.roundSeq = rid.Seq
	}
}

// walFor returns the site's log, or nil when the site is not durable
// (no WAL configured, or the site belongs to another process).
func (sys *System) walFor(site int) *wal.Log {
	if site < 0 || site >= len(sys.wals) {
		return nil
	}
	return sys.wals[site]
}

// walFlush flushes the site's log if it has one (a no-op on an empty
// batch). Called at every externalization point: no state may escape to
// a peer while a record it depends on is still in the in-memory batch.
//
//homeo:flushes
func (sys *System) walFlush(site int) {
	if l := sys.walFor(site); l != nil {
		_ = l.Flush()
	}
}

// CloseWAL flushes and closes every open log.
func (sys *System) CloseWAL() error {
	var first error
	for _, l := range sys.wals {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	sys.wals = nil
	return first
}

// logTreaty appends one installed treaty generation to the site's WAL
// (batched; the caller flushes at its externalization point). The
// constraint list is stored in the peer protocol's wire encoding, the
// same bytes InstallTreaties ships.
//
//homeo:hotpath
func (sys *System) logTreaty(site, unit int, l treaty.Local, version, clk int64, rid *fabric.RoundID) {
	lg := sys.walFor(site)
	if lg == nil {
		return
	}
	cs, err := fabric.ConstraintsToWire(l)
	if err != nil {
		// A treaty that passed Compile cannot fail wire encoding; if it
		// somehow does, losing the record only costs a stale-generation
		// repair at the next rejoin.
		sys.Col.RecordFabricError()
		return
	}
	rec := wal.TreatyRecord{Unit: unit, Site: site, Version: version, Clock: clk, Constraints: cs}
	if rid != nil {
		rec.Round = &wal.RoundID{Site: rid.Site, Seq: rid.Seq}
	}
	_ = lg.AppendTreaty(rec)
}

// RejoinFabric announces a recovered site to its peers and repairs the
// units whose treaty generation moved on while this process was down:
// peers fail over every round the dead incarnation was coordinating,
// and for each reported unit the rejoiner adopts the peer's replicated
// base values, zeroes its delta snapshots (a completed round folded them
// into the base — no round completes while a site is down, since the
// round-1 collect is all-to-all), forwards the treaty version, and pins
// the unit at the repaired state so its next local write resynchronizes
// under a freshly negotiated generation. Call from process context after
// OpenWAL, before serving.
func (sys *System) RejoinFabric(p rt.Proc) error {
	if sys.self < 0 {
		return nil
	}
	m := fabric.Rejoin{Site: sys.self, Clock: sys.tickClock(), Versions: make(map[int]int64, len(sys.Units))}
	for _, u := range sys.Units {
		m.Versions[u.id] = u.version
	}
	replies, err := sys.fab.Rejoin(p, sys.self, m)
	if err != nil {
		return err
	}
	// One repair per unit: a forced report (the peer saw our own orphaned
	// round's install) beats any version comparison; otherwise the
	// highest treaty version wins.
	best := make(map[int]fabric.RejoinUnit)
	for k, rep := range replies {
		if k == sys.self {
			continue
		}
		sys.observeClock(rep.Clock)
		for _, ru := range rep.Units {
			cur, ok := best[ru.Unit]
			if !ok || (ru.Force && !cur.Force) ||
				(ru.Force == cur.Force && ru.Version > cur.Version) {
				best[ru.Unit] = ru
			}
		}
	}
	ids := make([]int, 0, len(best))
	for id := range best {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if id < 0 || id >= len(sys.Units) {
			continue
		}
		ru := best[id]
		u := sys.Units[id]
		sys.installFolded(sys.self, u.objects, ru.Base, nil)
		if ru.Version > u.version {
			u.version = ru.Version
		}
		u.fold = nil
		sys.degradeToLocalPin(u, sys.self)
	}
	sys.walFlush(sys.self)
	return nil
}

// sortedNames returns the map's keys in sorted order, so WAL replay
// applies recovered writes in a deterministic sequence.
func sortedNames(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
