package homeostasis

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/wal"
)

// This file is the replay oracle: OpenWAL and applyWAL as they stood
// before replay became one streaming pass (materialize every record,
// sort every write-set, decode and compile every treaty generation,
// stable-sort the concatenated commit log), moved here verbatim but for
// their names. replay_test.go holds the streaming replay to it on random
// logs, the way treaty/reference_test.go keeps the reference optimizer.

// openWALOracle (the parent's OpenWAL) opens the per-site write-ahead logs under dir (only the owned
// site's in a multi-process deployment) and replays any records found
// into the freshly booted system, returning how many were recovered.
//
// Ordering contract: call after every transaction class is registered
// (AddUnits re-derives each class's units and boot treaties and resets
// its objects to their initial values — replay must land on top of that,
// not under it) and before the system serves traffic.
func (sys *System) openWALOracle(dir string, opts wal.Options) (int, error) {
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
		es, err := sys.applyWALOracle(k, recs)
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

// applyWALOracle (the parent's applyWAL) replays one site's records against its store partition and
// treaty slots, returning the commit-log entries to rebuild. The clock
// and the local round sequence advance past everything replayed, so the
// recovered incarnation cannot reuse a round id or a timestamp its
// previous life already externalized.
func (sys *System) applyWALOracle(site int, recs []wal.Record) ([]Committed, error) {
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
	return entries, nil
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
