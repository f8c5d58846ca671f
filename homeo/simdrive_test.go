package homeo_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/wire"
	"repro/internal/drive"
	"repro/internal/fabric"
	"repro/internal/rt"
	"repro/internal/wal"
)

// The seeded twins of two of CI's drive smokes: the cluster shape, class
// file, client count and chaos timeline that internal/drive parses out of
// the smoke's -drive string, played on the simulator over fabric.Sim
// instead of over processes and sockets. Like the drive, each ends with the
// merged replay check of Theorem 3.8; unlike it, a run takes well under a
// second, and two runs of one seed agree on every log and partition.

// simDrive is one twin run in progress.
type simDrive struct {
	t    *testing.T
	spec drive.Spec
	f    *homeo.SimFabric
	cls  homeo.ClassSpec
	// dir holds the sites' logs when the timeline kills one.
	dir string
	// sites holds each site's current incarnation; halted the ones whose
	// clients must stop (killed or drained).
	sites  []*homeo.Cluster
	halted map[*homeo.Cluster]bool
	end    rt.Time
	failed int
}

// runSimDrive plays the smoke's -drive string and returns what the drive
// gathers: every process's log and every member's partition.
func runSimDrive(t *testing.T, smoke string) ([][]wire.LogEntry, []wire.PartitionResponse) {
	t.Helper()
	spec, err := drive.ParseSpec(smoke, drive.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	req, err := drive.LoadClass("../internal/drive/testdata/withdraw3.json")
	if err != nil {
		t.Fatal(err)
	}
	// The smoke's processes talk over loopback: the net's round trip is a
	// millisecond, not the 50 ms of a simulated WAN.
	d := &simDrive{t: t, spec: spec, f: homeo.NewSimFabric(homeo.Options{Seed: 1, RTT: time.Millisecond, EnableLog: true}),
		cls: homeo.ClassSpec(req), halted: make(map[*homeo.Cluster]bool), end: rt.Time(spec.Duration)}
	for _, ev := range spec.Events {
		if ev.Kind == drive.Kill {
			d.dir = t.TempDir()
		}
	}
	for k := 0; k < spec.Procs; k++ {
		d.sites = append(d.sites, d.boot(k, spec.Procs))
	}
	for k, c := range d.sites {
		d.f.Attach(c)
		d.start(k, c)
	}
	eng := d.f.Eng
	for i, ev := range spec.Events {
		eng.At(rt.Time(ev.At), func() { eng.Spawn(-1-i, func(p rt.Proc) { d.fire(p, ev) }) })
	}
	eng.Run()
	defer func() {
		for _, c := range d.sites {
			c.Close()
		}
	}()
	if t.Failed() {
		t.FailNow()
	}

	check := d.sites[0]
	var logs [][]wire.LogEntry
	var parts []wire.PartitionResponse
	for _, c := range d.sites {
		logs = append(logs, c.WireLog())
		parts = append(parts, c.Partition())
	}
	if err := check.CheckMergedReplay(logs, parts); err != nil {
		t.Fatalf("merged replay: %v", err)
	}
	t.Logf("%s: %d commits from %d sites replay equivalent (%d requests failed)", smoke, len(homeo.MergeLogs(logs)), len(d.sites), d.failed)
	return logs, parts
}

// boot builds a site's process as the drive's children are built: the
// class file registered, the log (when there is one) replayed.
func (d *simDrive) boot(site, width int) *homeo.Cluster {
	c, err := d.f.Boot(site, width)
	if err == nil {
		_, err = c.Register(d.cls)
	}
	if err == nil && d.dir != "" {
		_, err = c.System().OpenWAL(d.dir, wal.Options{GroupWindow: -1})
	}
	if err != nil {
		d.t.Fatal(err)
	}
	return c
}

// start starts the site's closed-loop clients: draws from the class's
// bounds, one request after another until the drive's end or until the
// site is killed, drained or fenced.
func (d *simDrive) start(site int, c *homeo.Cluster) {
	sys := c.System()
	for i := 0; i < d.spec.Clients; i++ {
		id := site*d.spec.Clients + i
		d.f.Eng.Spawn(id, func(p rt.Proc) {
			rng := rand.New(rand.NewSource(1_000_003 + int64(id)))
			for p.Now() < d.end && !d.halted[c] {
				_, err := sys.ExecRequest(p, site, sys.W.Next(rng, site))
				if errors.Is(err, fabric.ErrSiteGone) {
					return
				}
				if err != nil {
					d.failed++
				}
			}
		})
	}
}

// fire carries out one timeline event, as the drive's fire does.
func (d *simDrive) fire(p rt.Proc, ev drive.Event) {
	var err error
	switch ev.Kind {
	case drive.Kill:
		// The process dies; its successor boots on the same log, replays
		// it, rejoins, and opens its listener.
		old := d.sites[ev.Site]
		d.halted[old] = true
		d.f.Kill(old)
		c := d.boot(ev.Site, d.spec.Procs)
		if err = c.System().RejoinFabric(p); err == nil {
			d.sites[ev.Site] = c
			d.f.Attach(c)
			d.start(ev.Site, c)
		}
	case drive.Join:
		// The joiner takes its width from site 0's topology, fences its gone
		// slots, is admitted, and then opens its listener.
		j := d.boot(ev.Site, ev.Site+1)
		for k, st := range d.sites[0].SiteStatuses() {
			if st == "gone" && err == nil {
				err = j.MarkSiteGone(k)
			}
		}
		if err == nil {
			_, err = j.System().JoinCluster(p, homeo.SimAddr(ev.Site))
		}
		if err == nil {
			d.sites = append(d.sites, j)
			d.f.Attach(j)
			d.start(ev.Site, j)
		}
	case drive.Drain:
		c := d.sites[ev.Site]
		err = c.System().Drain(p, ev.Site)
		d.halted[c] = true
	}
	if err != nil {
		d.t.Errorf("%v site %d at %v: %v", ev.Kind, ev.Site, ev.At, err)
	}
}

// twin runs the smoke twice, with every pooled buffer scribbled over as it
// is released, and holds the two runs to the same logs and partitions.
func twin(t *testing.T, smoke string) {
	scribbling(t)
	logs, parts := runSimDrive(t, smoke)
	again, againParts := runSimDrive(t, smoke)
	if !reflect.DeepEqual(logs, again) || !reflect.DeepEqual(parts, againParts) {
		t.Fatal("two runs of one seed diverged")
	}
}

// TestSimDriveJoinDrain is the twin of CI's elastic join-and-drain smoke.
func TestSimDriveJoinDrain(t *testing.T) {
	twin(t, "clients=2,duration=6s,class=Withdraw,procs=3,join=1@2s,drain=1@4s")
}

// TestSimDriveKill is the twin of CI's kill-and-recover smoke: site 1's
// System is dropped at mid-drive and a fresh one boots on its log,
// recovers it and rejoins.
func TestSimDriveKill(t *testing.T) {
	twin(t, "clients=2,duration=4s,class=Withdraw,procs=3,kill=1@mid")
}
