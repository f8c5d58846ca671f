package homeo

import (
	"cmp"
	"fmt"
	"slices"

	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/homeostasis"
	"repro/internal/lang"
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
// multi-process cluster (homeostasis.System.CheckReplay): every process's
// commit log, merged by Lamport order, against the fold of parts, one
// partition per site (a drained site's may be absent).
func (c *Cluster) CheckMergedReplay(logs [][]wire.LogEntry, parts []wire.PartitionResponse) (err error) {
	width := c.Sites()
	bySite := make([]homeostasis.Partition, width)
	for _, p := range parts {
		if p.Site < 0 || p.Site >= width {
			return fmt.Errorf("homeo: partition names site %d outside [0,%d)", p.Site, width)
		}
		if bySite[p.Site] != nil {
			return fmt.Errorf("homeo: duplicate partition for site %d", p.Site)
		}
		vals := p.Values
		bySite[p.Site] = func(obj lang.ObjID) (int64, bool) { v, ok := vals[string(obj)]; return v, ok }
	}
	merged := mergeOrder(logs)
	c.locked(func() {
		err = c.sys.CheckReplay(func(yield func(string, []int64) bool) {
			for _, p := range merged {
				if e := p.in(logs); !yield(e.Class, e.Args) {
					return
				}
			}
		}, bySite)
	})
	if err != nil {
		return fmt.Errorf("homeo: merged %w", err)
	}
	return nil
}
