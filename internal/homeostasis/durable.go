package homeostasis

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/treaty"
	"repro/internal/wal"
)

// This file makes sites durable: each owned site appends committed
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
	n := sys.Opts.Topo.NSites()
	sys.wals = make([]*wal.Log, n)
	recovered := 0
	rp := sys.newReplay()
	for k := 0; k < n; k++ {
		if sys.self >= 0 && k != sys.self {
			continue
		}
		l, recs, err := wal.Open(walPath(dir, k), opts)
		if err != nil {
			return recovered, err
		}
		sys.wals[k] = l
		// State replay per site, in file order (the order it was logged).
		if err := rp.applyWAL(k, recs); err != nil {
			return recovered, err
		}
		recovered += len(recs)
	}
	if sys.Opts.EnableLog {
		sys.CommitLog = rp.commitLog(sys.CommitLog)
	}
	sys.RecoveredRecords = int64(recovered)
	return recovered, nil
}

// maxWALSites bounds every cluster width and site index a WAL record may
// name. A frame's CRC vouches for its bytes, not for their sense: a
// record from a bad disk or a differently sized deployment can be
// well-formed and still ask replay to grow the cluster, or zero delta
// snapshots, without end. The bound is far above any width this code has
// been run at (tests and docs stay under 16) and is deliberately not the
// current width: a joiner's log names its own slot before the membership
// record that grows the cluster to it has been replayed.
const maxWALSites = 1024

// slabChunk is how many elements each of replay's slabs holds (see
// replay): 64 KiB of int64s.
const slabChunk = 8192

// replay is the scratch of one recovery. Records are decoded in place
// into the four views, whose byte fields alias the log's read buffer, so
// the one rule of this type is that nothing it leaves behind may: names
// go through the intern table, and the slices of a commit-log entry are
// copied into slabs — large arrays handed out piecewise, each piece
// capacity-clipped so that appending to one entry's Args cannot write
// into the next entry's.
type replay struct {
	sys *System
	// names interns class names and object ids: one string per distinct
	// name, shared with the delta-name cache where that already has it.
	names map[string]string

	commit  wal.CommitView
	install wal.InstallView
	treaty  wal.TreatyView
	member  wal.MembershipView
	// base is the install record's folded values, by interned id.
	base map[lang.ObjID]int64

	// runs holds the commit-log entries rebuilt from each log replayed,
	// each run in (Clock, Site) order.
	runs [][]Committed
	// seenRound dedups round winners within the log being replayed.
	seenRound map[fabric.RoundID]bool
	i64s      []int64
	ints      []int
	rounds    []fabric.RoundID

	// pending is the latest treaty generation that passed the version
	// guard for each (unit, site) of the log being replayed, in first-seen
	// order, and pendingAt its index: only these are decoded and compiled,
	// once the log has been read.
	pending   []pendingTreaty
	pendingAt map[[2]int]int
}

// pendingTreaty is a treaty record waiting to be installed; index is its
// position in the log, for error messages.
type pendingTreaty struct {
	unit, site, index int
	rec               wal.Record
}

func (sys *System) newReplay() *replay {
	rp := &replay{
		sys:       sys,
		names:     make(map[string]string, 4*len(sys.deltaNames)),
		base:      make(map[lang.ObjID]int64),
		seenRound: make(map[fabric.RoundID]bool),
		pendingAt: make(map[[2]int]int),
	}
	//homeo:nondet fills a lookup table; no cross-key effects and nothing escapes
	for obj, deltas := range sys.deltaNames {
		rp.names[string(obj)] = string(obj)
		for _, d := range deltas {
			rp.names[string(d)] = string(d)
		}
	}
	return rp
}

// name returns the interned string equal to b, which does not alias it.
//
//homeo:hotpath
func (rp *replay) name(b []byte) string {
	if s, ok := rp.names[string(b)]; ok {
		return s
	}
	s := string(b)
	rp.names[s] = s
	return s
}

// carve copies src into the slab and returns the copy, capacity-clipped;
// nil for an empty src. A full slab is replaced, never regrown: pieces
// already handed out keep pointing into the old one.
//
//homeo:hotpath
func carve[T any](slab *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if cap(*slab)-len(*slab) < len(src) {
		*slab = make([]T, 0, max(slabChunk, len(src)))
	}
	from := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[from:len(*slab):len(*slab)]
}

// applyWAL replays one site's records against its store partition and
// treaty slots and keeps the commit-log entries to rebuild as a run. The
// clock and the local round sequence advance past everything replayed,
// so the recovered incarnation cannot reuse a round id or a timestamp
// its previous life already externalized. recs may alias a buffer the
// caller goes on to reuse: nothing read from it is referenced once
// applyWAL returns.
//
//homeo:hotpath
func (rp *replay) applyWAL(site int, recs []wal.Record) error {
	sys := rp.sys
	st := sys.Stores[site]
	clear(rp.seenRound)
	var run []Committed
	sorted := true // so far, run is in (Clock, Site) order
	if sys.Opts.EnableLog {
		commits := 0
		for _, r := range recs {
			if r.Kind == wal.KindCommit {
				commits++
			}
		}
		run = make([]Committed, 0, commits)
	}
	for i, r := range recs {
		switch r.Kind {
		case wal.KindCommit:
			c := &rp.commit
			if err := c.Decode(r); err != nil {
				return errWALRecord(site, i, err)
			}
			if c.Site < 0 || c.Site >= maxWALSites {
				return errWALRecord(site, i, errWALWidth("commit at site", c.Site))
			}
			// The watermark, pair by pair as encoded: Apply overwrites, so
			// the partition ends at each name's last value whatever the
			// order, which is also what a map of the pairs would hold.
			for _, w := range c.Writes {
				st.Apply(lang.ObjID(rp.name(w.Name)), w.Val)
			}
			sys.observeClock(c.Clock)
			rid := fabric.RoundID(c.Round)
			if c.HasRound {
				if rp.seenRound[rid] {
					// A crash between adopting a round and acking it can
					// log the same winner twice; one copy suffices.
					continue
				}
				rp.seenRound[rid] = true
				sys.bumpRoundSeq(rid)
			}
			if !sys.Opts.EnableLog {
				continue
			}
			entry := Committed{
				Name: rp.name(c.Class), Args: carve(&rp.i64s, c.Args), Site: c.Site,
				Units: carve(&rp.ints, c.Units), Log: carve(&rp.i64s, c.Log), Clock: c.Clock,
			}
			if c.HasRound {
				if len(rp.rounds) == cap(rp.rounds) {
					rp.rounds = make([]fabric.RoundID, 0, slabChunk)
				}
				rp.rounds = append(rp.rounds, rid)
				entry.Round = &rp.rounds[len(rp.rounds)-1]
			}
			if n := len(run); n > 0 && commitOrder(&entry, &run[n-1]) < 0 {
				sorted = false
			}
			run = append(run, entry)
		case wal.KindInstall:
			c := &rp.install
			if err := c.Decode(r); err != nil {
				return errWALRecord(site, i, err)
			}
			if c.Sites > maxWALSites {
				return errWALRecord(site, i, errWALWidth("install across", c.Sites))
			}
			clear(rp.base)
			for _, b := range c.Base {
				rp.base[lang.ObjID(rp.name(b.Name))] = b.Val
			}
			for _, name := range c.Objs {
				obj := lang.ObjID(rp.name(name))
				st.Apply(obj, rp.base[obj])
				for k := 0; k < c.Sites; k++ {
					st.Apply(sys.deltaName(obj, k), 0)
				}
			}
			for _, d := range c.Drift {
				st.Apply(lang.ObjID(rp.name(d.Name)), d.Val)
			}
			sys.observeClock(c.Clock)
			sys.bumpRoundSeq(fabric.RoundID(c.Round))
		case wal.KindTreaty:
			c := &rp.treaty
			if err := c.Decode(r); err != nil {
				return errWALRecord(site, i, err)
			}
			if c.Unit < 0 || c.Unit >= len(sys.Units) {
				return errWALUnit(site, c.Unit)
			}
			// The version guard runs now, and the version moves now, so
			// every later record meets the guard it always met; the
			// constraint list (walked by Decode, so known well-formed) is
			// decoded and compiled after the loop, and only if no later
			// generation for the same slot replaces it first.
			u := sys.Units[c.Unit]
			admitted, err := u.admitsTreaty(c.Site, c.Version)
			if err != nil {
				return errWALRecord(site, i, err)
			}
			if admitted {
				rp.hold(pendingTreaty{unit: c.Unit, site: c.Site, index: i, rec: r})
				u.version = max(u.version, c.Version)
			}
			sys.observeClock(c.Clock)
			if c.HasRound {
				sys.bumpRoundSeq(fabric.RoundID(c.Round))
			}
		case wal.KindMembership:
			c := &rp.member
			if err := c.Decode(r); err != nil {
				return errWALRecord(site, i, err)
			}
			if c.Width > maxWALSites {
				return errWALRecord(site, i, errWALWidth("membership of width", c.Width))
			}
			el, err := sys.membership("replaying a membership record")
			if err != nil {
				return errWALRecord(site, i, err)
			}
			// Records carry the whole table, so replay keeps the last:
			// grow to the recorded width (transports included, using the
			// recorded addrs), then roll statuses forward.
			for sys.Opts.Topo.NSites() < c.Width {
				addr := ""
				if k := sys.Opts.Topo.NSites(); k < len(c.Addrs) {
					addr = string(c.Addrs[k])
				}
				sys.growSystem(addr)
			}
			for k, a := range c.Addrs {
				if k < len(sys.siteAddrs) && sys.siteAddrs[k] == "" {
					sys.siteAddrs[k] = string(a)
				}
			}
			for k, s := range c.Status {
				if k >= len(sys.status) {
					break
				}
				if st := siteStatus(s); st > sys.status[k] {
					sys.status[k] = st
					if st == siteGone {
						el.MarkGone(k)
					}
				}
			}
			if c.Epoch > sys.epoch {
				sys.epoch = c.Epoch
			}
			sys.observeClock(c.Clock)
		default:
			return errWALKind(site, i, r.Kind)
		}
	}
	if len(run) > 0 {
		// A log's own order is normally clock order already: a site stamps
		// its records from one Lamport clock. The exception is a round's
		// winner, stamped with the clock its install shipped and logged
		// once the round is through, behind whatever the site committed
		// on other units meanwhile.
		if !sorted {
			slices.SortStableFunc(run, func(a, b Committed) int { return commitOrder(&a, &b) })
		}
		rp.runs = append(rp.runs, run)
	}
	return rp.installPending(site)
}

// hold keeps p as the generation to install for its (unit, site),
// replacing an earlier one of the log being replayed.
//
//homeo:hotpath
func (rp *replay) hold(p pendingTreaty) {
	key := [2]int{p.unit, p.site}
	if at, ok := rp.pendingAt[key]; ok {
		rp.pending[at] = p
		return
	}
	rp.pendingAt[key] = len(rp.pending)
	rp.pending = append(rp.pending, p)
}

// installPending decodes, compiles and installs the treaty generations
// the log's replay held back, and forgets them: they alias its buffer.
func (rp *replay) installPending(site int) error {
	defer func() {
		clear(rp.pending)
		rp.pending = rp.pending[:0]
		clear(rp.pendingAt)
	}()
	for _, p := range rp.pending {
		c, err := p.rec.Treaty()
		if err != nil {
			return errWALRecord(site, p.index, err)
		}
		l, err := fabric.ConstraintsFromWire(p.site, c.Constraints)
		if err != nil {
			return errWALRecord(site, p.index, err)
		}
		if err := rp.sys.Units[p.unit].setSiteTreaty(p.site, l); err != nil {
			return errWALRecord(site, p.index, err)
		}
	}
	return nil
}

// commitOrder compares commit-log entries by (Clock, Site): the causal
// order MergeLogs establishes across sites.
func commitOrder(a, b *Committed) int {
	if c := cmp.Compare(a.Clock, b.Clock); c != 0 {
		return c
	}
	return cmp.Compare(a.Site, b.Site)
}

// commitLog returns the rebuilt commit log: whatever log already holds,
// then the replayed runs merged by (Clock, Site), ties to the earlier
// run. Every run is stably sorted, so that merge is the stable sort of
// their concatenation — same-site ties keep file order — without the
// sort; one run is the log as it stands, adopted without a copy.
func (rp *replay) commitLog(log []Committed) []Committed {
	if len(log) == 0 && len(rp.runs) == 1 {
		return rp.runs[0]
	}
	total := 0
	for _, run := range rp.runs {
		total += len(run)
	}
	log = slices.Grow(log, total)
	for {
		first := -1
		for k, run := range rp.runs {
			if len(run) > 0 && (first < 0 || commitOrder(&run[0], &rp.runs[first][0]) < 0) {
				first = k
			}
		}
		if first < 0 {
			return log
		}
		log = append(log, rp.runs[first][0])
		rp.runs[first] = rp.runs[first][1:]
	}
}

// Cold-path error constructors of replay, kept out of the hot loop.

func errWALRecord(site, i int, err error) error {
	return fmt.Errorf("homeostasis: site %d WAL record %d: %w", site, i, err)
}

func errWALWidth(what string, n int) error {
	return fmt.Errorf("%s %d is outside the %d sites a log may name", what, n, maxWALSites)
}

func errWALUnit(site, unit int) error {
	return fmt.Errorf("homeostasis: site %d WAL names unknown unit %d (register every class before OpenWAL)", site, unit)
}

func errWALKind(site, i int, kind wal.Kind) error {
	return fmt.Errorf("homeostasis: site %d WAL record %d has unknown kind %v", site, i, kind)
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
	// AppendTreaty encodes the record before it returns and keeps none of
	// it, so the list is the System's, filled over the last one.
	sys.walTreaty = fabric.AppendConstraintsToWire(sys.walTreaty, l)
	rec := wal.TreatyRecord{Unit: unit, Site: site, Version: version, Clock: clk,
		Constraints: sys.walTreaty}
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
// OpenWAL, before serving. A System holding every site has no peers and
// nothing to do.
func (sys *System) RejoinFabric(p rt.Proc) error {
	if sys.elastic == nil {
		return nil
	}
	m := fabric.Rejoin{Site: sys.self, Clock: sys.tickClock(), Versions: make(map[int]int64, len(sys.Units))}
	for _, u := range sys.Units {
		m.Versions[u.id] = u.version
	}
	replies, err := sys.elastic.Rejoin(p, sys.self, m)
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
		sys.degradeToLocalPin(u, sys.self)
	}
	sys.walFlush(sys.self)
	return nil
}
