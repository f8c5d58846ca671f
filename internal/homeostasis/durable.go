package homeostasis

import (
	"cmp"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"

	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/fabric/codec"
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
	// Every owned log is read before any is replayed: the commit log is
	// rebuilt in one segment sized for all of them.
	logs := make([]wal.Prefix, n)
	for k := 0; k < n; k++ {
		if sys.self >= 0 && k != sys.self {
			continue
		}
		l, data, err := wal.Open(walPath(dir, k), opts)
		if err != nil {
			return 0, err
		}
		sys.wals[k], logs[k] = l, data
	}
	recovered := 0
	rp := sys.newReplay(logs)
	for k, data := range logs {
		// State replay per site, in file order (the order it was logged).
		n, err := rp.applyWAL(k, data)
		if err != nil {
			return recovered, err
		}
		recovered += n
	}
	if sys.Opts.EnableLog {
		rp.commitLog()
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

// replay is the scratch of one recovery. Records are decoded in place
// into the four views, whose byte fields alias the logs' read buffers, so
// the one rule of this type is that nothing it leaves behind may: names
// go through the intern table, and a commit-log entry is packed by the
// System's commit log, which copies its Args as it does every live
// commit's (CommitLog.add).
type replay struct {
	sys *System
	log *CommitLog
	// names interns class names and object ids: one string per distinct
	// name, shared with the delta-name cache where that already has it.
	names map[string]string

	commit  wal.CommitView
	install wal.InstallView
	treaty  wal.TreatyView
	member  wal.MembershipView
	// base is the install record's folded values, by interned id.
	base map[lang.ObjID]int64
	// cons is the constraint list of the treaty generation being
	// installed, decoded over the last one's.
	cons []wire.PeerConstraint

	// seg is the commit-log segment the replay rebuilds, sized by
	// newReplay for every commit record of every log, its entries packed
	// by log. Each log replayed appends its entries as one run, in
	// (Clock, Site) order; runs[k] is where the k-th run ends, and from
	// where the one being replayed starts. sorted reports that it is in
	// order so far.
	seg    []logEntry
	runs   []int
	from   int
	sorted bool
	// winners is scratch for finding a winner logged twice in a run.
	winners []int

	// pending is the latest treaty generation that passed the version
	// guard for each (unit, site) of the log being replayed, in first-seen
	// order, and pendingAt its index: only these are decoded and compiled,
	// once the log has been read.
	pending   []pendingTreaty
	pendingAt map[[2]int]int
}

// pendingTreaty is a treaty record waiting to be installed: its
// constraint list still encoded, aliasing the log's buffer, and index its
// position in the log, for error messages.
type pendingTreaty struct {
	unit, site, index int
	constraints       []byte
}

// newReplay returns the scratch of a recovery of logs, logs[k] being site
// k's (nil for a site not replayed).
func (sys *System) newReplay(logs []wal.Prefix) *replay {
	rp := &replay{
		sys:       sys,
		log:       &sys.CommitLog,
		names:     make(map[string]string, 4*len(sys.deltaNames)),
		base:      make(map[lang.ObjID]int64),
		pendingAt: make(map[[2]int]int),
	}
	//homeo:nondet fills a lookup table; no cross-key effects and nothing escapes
	for obj, deltas := range sys.deltaNames {
		rp.names[string(obj)] = string(obj)
		for _, d := range deltas {
			rp.names[string(d)] = string(d)
		}
	}
	if sys.Opts.EnableLog {
		commits := 0
		for _, data := range logs {
			commits += data.Count(wal.KindCommit)
		}
		rp.seg = make([]logEntry, 0, commits)
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

// class returns the commit log's id of the class name b, which does not
// alias it: a name the log has seen costs one lookup.
//
//homeo:hotpath
func (rp *replay) class(b []byte) uint32 {
	if k, ok := rp.log.ids[string(b)]; ok {
		return k
	}
	return rp.log.addName(rp.name(b))
}

// applyWAL replays one site's log against its store partition and treaty
// slots, appends its commit-log entries to the segment as a run, and
// returns how many records it replayed. The clock and the local round
// sequence advance past everything replayed, so the recovered incarnation
// cannot reuse a round id or a timestamp its previous life already
// externalized. data may alias a buffer the caller goes on to reuse:
// nothing read from it is referenced once applyWAL returns.
func (rp *replay) applyWAL(site int, data wal.Prefix) (int, error) {
	rp.from, rp.sorted = len(rp.seg), true
	n, err := data.Walk(func(i int, r wal.Record) error { return rp.record(site, i, r) })
	if err != nil {
		return n, err
	}
	if run := rp.dropRepeatedWinners(rp.seg[rp.from:]); len(run) > 0 {
		rp.seg = rp.seg[:rp.from+len(run)]
		// A log's own order is normally clock order already: a site stamps
		// its records from one Lamport clock. The exception is a round's
		// winner, stamped with the clock its install shipped and logged
		// once the round is through, behind whatever the site committed
		// on other units meanwhile.
		if !rp.sorted {
			slices.SortStableFunc(run, func(a, b logEntry) int { return commitOrder(&a, &b) })
		}
		rp.runs = append(rp.runs, len(rp.seg))
	}
	return n, rp.installPending(site)
}

// record replays the i-th record of site's log.
//
//homeo:hotpath
func (rp *replay) record(site, i int, r wal.Record) error {
	sys := rp.sys
	st := sys.Stores[site]
	switch r.Kind {
	case wal.KindCommit:
		c := &rp.commit
		if err := c.Decode(r); err != nil {
			return errWALRecord(site, i, err)
		}
		if c.Site < 0 || c.Site >= maxWALSites {
			return errWALRecord(site, i, errWALWidth("commit at site", c.Site))
		}
		if c.HasRound && (c.Round.Site < 0 || c.Round.Site >= maxWALSites) {
			return errWALRecord(site, i, errWALWidth("commit of a round of site", c.Round.Site))
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
			sys.bumpRoundSeq(rid)
		}
		if !sys.Opts.EnableLog {
			return nil
		}
		entry := rp.log.pack(rp.class(c.Class), Committed{Args: c.Args, Site: c.Site, Clock: c.Clock})
		if c.HasRound {
			entry.setRound(rid)
		}
		if n := len(rp.seg); n > rp.from && commitOrder(&entry, &rp.seg[n-1]) < 0 {
			rp.sorted = false
		}
		rp.seg = append(rp.seg, entry)
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
		// decoded and compiled after the log, and only if no later
		// generation for the same slot replaces it first.
		u := sys.Units[c.Unit]
		admitted, err := u.admitsTreaty(c.Site, c.Version)
		if err != nil {
			return errWALRecord(site, i, err)
		}
		if admitted {
			rp.hold(pendingTreaty{unit: c.Unit, site: c.Site, index: i, constraints: c.Constraints})
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
	return nil
}

// dropRepeatedWinners removes from run, the entries of the log being
// replayed, every copy of a round's winner after the first, and returns
// what is left of it, in place. A crash between adopting a round and
// acking it can log the same winner twice; one copy suffices.
func (rp *replay) dropRepeatedWinners(run []logEntry) []logEntry {
	n := 0
	for i := range run {
		if run[i].roundSite != 0 {
			n++
		}
	}
	if n < 2 {
		return run
	}
	if cap(rp.winners) < n {
		rp.winners = make([]int, 0, n)
	}
	w := rp.winners[:0]
	for i := range run {
		if run[i].roundSite != 0 {
			w = append(w, i)
		}
	}
	slices.SortFunc(w, func(a, b int) int {
		ea, eb := &run[a], &run[b]
		return cmp.Or(cmp.Compare(ea.roundSite, eb.roundSite), cmp.Compare(ea.roundSeq, eb.roundSeq), cmp.Compare(a, b))
	})
	// Where each later copy lies, in w's front, then in log order.
	drop := w[:0]
	for i, prev := 1, w[0]; i < len(w); i++ {
		at := w[i]
		if run[at].roundSite == run[prev].roundSite && run[at].roundSeq == run[prev].roundSeq {
			drop = append(drop, at)
		} else {
			prev = at
		}
	}
	if len(drop) == 0 {
		return run
	}
	slices.Sort(drop)
	kept := drop[0]
	for i, at := range drop {
		end := len(run)
		if i+1 < len(drop) {
			end = drop[i+1]
		}
		kept += copy(run[kept:], run[at+1:end])
	}
	return run[:kept]
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
// Each is decoded into the replay's constraint scratch, its names
// interned, so what an installed generation keeps is only what
// fabric.ConstraintsFromWire builds and the slot adopts.
func (rp *replay) installPending(site int) error {
	defer func() {
		clear(rp.pending)
		rp.pending = rp.pending[:0]
		clear(rp.pendingAt)
	}()
	for _, p := range rp.pending {
		rd := codec.MakeNamedReader(p.constraints, rp.names)
		rp.cons = rd.ConstraintsInto(rp.cons)
		if err := rd.Close(); err != nil {
			return errWALRecord(site, p.index, err)
		}
		l, err := fabric.ConstraintsFromWire(p.site, rp.cons)
		if err != nil {
			return errWALRecord(site, p.index, err)
		}
		if err := rp.sys.Units[p.unit].adoptSiteTreaty(p.site, l); err != nil {
			return errWALRecord(site, p.index, err)
		}
	}
	return nil
}

// commitOrder compares commit-log entries by (Clock, Site): the causal
// order MergeLogs establishes across sites.
func commitOrder(a, b *logEntry) int {
	if c := cmp.Compare(a.clock, b.clock); c != 0 {
		return c
	}
	return cmp.Compare(a.site, b.site)
}

// commitLog appends the replayed segment to the System's commit log, its
// runs merged by (Clock, Site), ties to the earlier run. Every run is
// stably sorted, so that merge is the stable sort of their concatenation
// — same-site ties keep file order — without the sort. The segment
// becomes the log's own, without a copy, and the log's earlier entries
// stay where they are.
func (rp *replay) commitLog() {
	if len(rp.seg) == 0 {
		return
	}
	if len(rp.runs) > 1 {
		mergeRuns(rp.seg, rp.runs)
	}
	rp.log.adopt(rp.seg)
}

// mergeRuns merges the sorted runs of seg, runs[k] being where the k-th
// ends, in place. It first works out, for every place of the merged
// order, where the entry that belongs there lies now (four bytes an entry),
// then moves each entry once, cycle by cycle of that permutation.
func mergeRuns(seg []logEntry, runs []int) {
	if len(seg) > math.MaxInt32 {
		slices.SortStableFunc(seg, func(a, b logEntry) int { return commitOrder(&a, &b) })
		return
	}
	next := make([]int, len(runs)) // the first entry of each run not yet placed
	for k := 1; k < len(runs); k++ {
		next[k] = runs[k-1]
	}
	from := make([]int32, len(seg))
	for j := range from {
		first := -1
		for k, at := range next {
			if at < runs[k] && (first < 0 || commitOrder(&seg[at], &seg[next[first]]) < 0) {
				first = k
			}
		}
		from[j] = int32(next[first])
		next[first]++
	}
	for j := range from {
		if int(from[j]) == j {
			continue
		}
		held, at := seg[j], j
		for int(from[at]) != j {
			src := int(from[at])
			seg[at], from[at] = seg[src], int32(at)
			at = src
		}
		seg[at], from[at] = held, int32(at)
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
	// it, so the list is the System's, filled over the last one — and l,
	// often a slot's generation that a later install writes over, is read
	// only here.
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
