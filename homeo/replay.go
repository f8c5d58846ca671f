package homeo

import (
	"fmt"
	"sort"

	"repro/homeo/wire"
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
		for i, e := range c.sys.CommitLog {
			en := wire.LogEntry{
				Class: e.Name,
				Args:  e.Args,
				Site:  e.Site,
				Clock: e.Clock,
				Seq:   i,
			}
			if e.Round != nil {
				en.Round = &wire.LogRound{Site: e.Round.Site, Seq: e.Round.Seq}
			}
			out = append(out, en)
		}
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
	var out []wire.LogEntry
	for _, l := range logs {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Clock != b.Clock {
			return a.Clock < b.Clock
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Seq < b.Seq
	})
	seen := make(map[wire.LogRound]bool)
	dst := out[:0]
	for _, e := range out {
		if e.Round != nil {
			if seen[*e.Round] {
				continue
			}
			seen[*e.Round] = true
		}
		dst = append(dst, e)
	}
	return dst
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
	merged := MergeLogs(logs)
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
	// surviving sites' partitions carry its contribution. Every site still
	// in the membership must report.
	statuses := c.SiteStatuses()
	ref := -1 // lowest-indexed site with a partition: the base reference
	for site, vals := range bySite {
		if vals == nil {
			if statuses[site] == "gone" {
				continue
			}
			return fmt.Errorf("homeo: missing partition for site %d (status %s)", site, statuses[site])
		}
		if ref < 0 {
			ref = site
		}
	}
	if ref < 0 {
		return fmt.Errorf("homeo: merged replay with no partitions")
	}

	var replay lang.Database
	c.locked(func() { replay = c.reg.InitialDB() })
	for _, e := range merged {
		t := c.Class(e.Class)
		if t == nil {
			return fmt.Errorf("homeo: merged replay: %q is not a registered class (base workload commits are not reconstructible)", e.Class)
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
			if b, ok := bySite[site][string(obj)]; ok && b != base {
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
