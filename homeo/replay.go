package homeo

import (
	"cmp"
	"fmt"
	"slices"

	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/homeostasis"
	"repro/internal/lang"
	"repro/internal/workload"
)

// This file is the multi-process half of the replay-equivalence check
// (Theorem 3.8): each process exposes its own commit log and database
// partition over the wire (GET /v1/peer/log, GET /v1/peer/db), and the
// driver merges them into one causally consistent history to replay.

// WireLog renders this process's commit log in wire form. Entries carry
// the commit's Lamport clock and local sequence number; synchronization
// rounds propagate clocks between processes, so MergeLogs can order the
// union consistently with the causality the rounds establish.
func (c *Cluster) WireLog() []wire.LogEntry {
	var out []wire.LogEntry
	c.locked(func() {
		log := &c.sys.CommitLog
		out = make([]wire.LogEntry, 0, log.Len())
		log.All(func(i int, e homeostasis.Committed) bool {
			en := wire.LogEntry{
				Class: e.Name,
				Args:  e.Args,
				Site:  e.Site,
				Clock: e.Clock,
				Seq:   i,
			}
			if e.Round != (fabric.RoundID{}) {
				en.Round = &wire.LogRound{Site: e.Round.Site, Seq: e.Round.Seq}
			}
			out = append(out, en)
			return true
		})
	})
	return out
}

// Partition renders this process's authoritative share of the logical
// database: every treaty-unit object's base value plus the site's own
// delta values.
func (c *Cluster) Partition() wire.PartitionResponse {
	site := c.SelfSite()
	if site < 0 {
		site = 0
	}
	out := wire.PartitionResponse{Site: site, Values: map[string]int64{}}
	c.locked(func() {
		for obj, v := range c.sys.PartitionDB(site) {
			out.Values[string(obj)] = v
		}
	})
	return out
}

// MergeLogs merges per-site commit logs into one history ordered by
// (Lamport clock, site, local sequence). Commits causally ordered by a
// synchronization round keep their order; concurrent commits (which the
// treaties guarantee stay within their sites' slack) tie-break
// deterministically. A synchronization round's winner can legitimately
// appear in more than one log — the coordinator's, plus any site that
// adopted the round during coordinator failover — so entries tagged with
// a round id are deduplicated, keeping the first in merge order.
func MergeLogs(logs [][]wire.LogEntry) []wire.LogEntry {
	order := mergeOrder(logs)
	out := make([]wire.LogEntry, len(order))
	for i, p := range order {
		out[i] = *p.in(logs)
	}
	return out
}

// logPos is an entry of a merged history: logs[log][at]. Four bytes an
// index suffice: a log of 2³¹ entries would hold 150 GB of them.
type logPos struct{ log, at int32 }

func (p logPos) in(logs [][]wire.LogEntry) *wire.LogEntry { return &logs[p.log][p.at] }

// mergeOrder is MergeLogs as positions into logs, not copies of entries:
// a stable sort of the logs' concatenation by (Clock, Site, Seq), each
// round's winner kept at its first position only.
func mergeOrder(logs [][]wire.LogEntry) []logPos {
	total, rounds := 0, 0
	for _, l := range logs {
		total += len(l)
		for i := range l {
			if l[i].Round != nil {
				rounds++
			}
		}
	}
	order := make([]logPos, 0, total)
	for k, l := range logs {
		for i := range l {
			order = append(order, logPos{int32(k), int32(i)})
		}
	}
	slices.SortStableFunc(order, func(a, b logPos) int {
		ea, eb := a.in(logs), b.in(logs)
		if c := cmp.Compare(ea.Clock, eb.Clock); c != 0 {
			return c
		}
		if c := cmp.Compare(ea.Site, eb.Site); c != 0 {
			return c
		}
		return cmp.Compare(ea.Seq, eb.Seq)
	})
	// Where each round-tagged entry lies in the order, sorted by round and
	// then by place: every later copy of a winner comes right after the
	// first, and is dropped.
	tagged := make([]int32, 0, rounds)
	for j, p := range order {
		if p.in(logs).Round != nil {
			tagged = append(tagged, int32(j))
		}
	}
	round := func(j int32) wire.LogRound { return *order[j].in(logs).Round }
	slices.SortFunc(tagged, func(a, b int32) int {
		ra, rb := round(a), round(b)
		if c := cmp.Compare(ra.Site, rb.Site); c != 0 {
			return c
		}
		if c := cmp.Compare(ra.Seq, rb.Seq); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i := len(tagged) - 1; i > 0; i-- {
		if round(tagged[i]) == round(tagged[i-1]) {
			order[tagged[i]].log = -1
		}
	}
	kept := order[:0]
	for _, p := range order {
		if p.log >= 0 {
			kept = append(kept, p)
		}
	}
	return kept
}

// CheckMergedReplay verifies observational equivalence across a
// multi-process cluster: the union of every process's commit log, merged
// by Lamport order, applied serially to the initial logical database,
// must reproduce the database folded from every process's partition.
//
// Every logged commit must name a class registered on this cluster (the
// driver registers the same classes at every site before driving) — base
// workload draws are not reconstructible from the wire log. parts must
// hold one partition per site.
func (c *Cluster) CheckMergedReplay(logs [][]wire.LogEntry, parts []wire.PartitionResponse) error {
	width := c.Sites()
	merged := mergeOrder(logs)
	if len(merged) == 0 {
		return fmt.Errorf("homeo: merged replay with empty commit log")
	}
	bySite := make([]map[string]int64, width)
	for _, p := range parts {
		if p.Site < 0 || p.Site >= width {
			return fmt.Errorf("homeo: partition names site %d outside [0,%d)", p.Site, width)
		}
		if bySite[p.Site] != nil {
			return fmt.Errorf("homeo: duplicate partition for site %d", p.Site)
		}
		bySite[p.Site] = p.Values
	}
	// A drained site's partition may be absent: its deltas were absorbed
	// into the replicated base by the drain's winnerless rounds, so the
	// surviving sites' partitions carry its contribution. One that still
	// reports keeps the base it last saw, since rounds after the drain do
	// not reach it: its deltas count, its base is not compared. Every site
	// still in the membership must report.
	statuses := c.SiteStatuses()
	ref := -1 // lowest-indexed live site with a partition: the base reference
	for site, vals := range bySite {
		if vals == nil {
			if statuses[site] == "gone" {
				continue
			}
			return fmt.Errorf("homeo: missing partition for site %d (status %s)", site, statuses[site])
		}
		if ref < 0 && statuses[site] != "gone" {
			ref = site
		}
	}
	if ref < 0 {
		return fmt.Errorf("homeo: merged replay with no partitions")
	}

	var replay lang.Database
	c.locked(func() { replay = c.reg.InitialDB() })
	// Each class is looked up once: a log names a handful many times over.
	classes := make(map[string]*TxnClass)
	for _, p := range merged {
		e := p.in(logs)
		t, ok := classes[e.Class]
		if !ok {
			if t = c.Class(e.Class); t == nil {
				return fmt.Errorf("homeo: merged replay: %q is not a registered class (base workload commits are not reconstructible)", e.Class)
			}
			classes[e.Class] = t
		}
		var (
			req workload.Request
			err error
		)
		// Applying runs under the execution right too: it borrows one of
		// the class's pooled environments.
		c.locked(func() {
			if req, err = c.reg.Request(t.wc, e.Args); err == nil {
				req.Apply(replay, req.Args)
			}
		})
		if err != nil {
			return fmt.Errorf("homeo: merged replay: %s%v: %v", e.Class, e.Args, err)
		}
	}

	// Fold the final database from the partitions: the base value from
	// the reference site (replicated — verify the others agree) plus
	// every reporting site's own delta. Absent (drained) sites
	// contribute zero delta by construction.
	var objs []lang.ObjID
	c.locked(func() { objs = c.sys.AllUnitObjects() })
	for _, obj := range objs {
		base, ok := bySite[ref][string(obj)]
		if !ok {
			return fmt.Errorf("homeo: merged replay: site %d partition is missing %s", ref, obj)
		}
		v := base
		for site := 0; site < width; site++ {
			if bySite[site] == nil {
				continue
			}
			if b, ok := bySite[site][string(obj)]; ok && b != base && statuses[site] != "gone" {
				return fmt.Errorf("homeo: merged replay: base %s diverged: site %d has %d, site %d has %d",
					obj, ref, base, site, b)
			}
			v += bySite[site][string(lang.DeltaObj(obj, site))]
		}
		if got := replay.Get(obj); got != v {
			return fmt.Errorf("homeo: merged replay mismatch on %s: cluster %d, serial replay %d (%d commits)",
				obj, v, got, len(merged))
		}
	}
	return nil
}
