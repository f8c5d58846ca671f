package homeo_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/httpapi"
	"repro/homeo/wire"
	"repro/internal/drive"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/tpcc"
	"repro/internal/wal"
)

// The seeded twins of the six drive smokes: each smoke's options and -drive
// string, played by drive.Run over simFleet — the drive's sites as Clusters
// on one simulator, in virtual time — instead of over processes and sockets.
// Each run ends with the drive's own replay check; two runs of a seed agree
// on every log, partition and line of output, and the output is held to
// testdata/drive_twins.golden.

var update = flag.Bool("update", false, "rewrite testdata/drive_twins.golden from the twins' output")

// simFleet is drive.Fleet on a SimFabric. A kill is SimFabric.Kill, and the
// site comes back as a fresh boot over the same log directory that rejoins
// the fabric; a join is JoinCluster, a drain System.Drain. Clients and the
// timeline are engine processes.
type simFleet struct {
	t    *testing.T
	f    *homeo.SimFabric
	spec drive.Spec
	cls  []homeo.ClassSpec
	dir  string // the sites' logs, when the timeline kills one
	// sites has the only cluster of an in-process drive, or each site's
	// current incarnation (nil while it restarts).
	sites []*homeo.Cluster
	tl    rt.Proc // the timeline's process
	ids   int
}

func (s *simFleet) Boot(opts homeo.Options, spec drive.Spec, classes []wire.ClassRequest, out io.Writer) (*homeo.Cluster, []wire.ClassInfo, error) {
	start := time.Now()
	s.f, s.spec = homeo.NewSimFabric(opts), spec
	for _, req := range classes {
		s.cls = append(s.cls, homeo.ClassSpec(req))
	}
	if slices.ContainsFunc(spec.Events, func(ev drive.Event) bool { return ev.Kind == drive.Kill }) {
		s.dir = s.t.TempDir()
	}
	var infos []wire.ClassInfo
	for k := 0; k < max(spec.Procs, 1); k++ {
		c, is, err := s.boot(k, spec.Procs)
		if err != nil {
			return nil, nil, err
		}
		if spec.Procs > 0 {
			s.f.Attach(c)
		}
		s.sites, infos = append(s.sites, c), is
	}
	c := s.sites[0]
	fmt.Fprintf(out, "booted %s on %d sites in %v (mode %s, alloc %s)\n",
		c.WorkloadName(), c.Sites(), time.Since(start).Round(time.Millisecond), opts.Mode, opts.Alloc)
	return c, infos, nil
}

// boot builds site's process of a width-site fabric (width 0: every site in
// one Cluster) as a drive's processes boot: the classes registered, the log
// (when there is one) replayed. It is not on the net yet.
func (s *simFleet) boot(site, width int) (*homeo.Cluster, []wire.ClassInfo, error) {
	var c *homeo.Cluster
	var err error
	if width == 0 {
		c, err = s.f.BootSites()
	} else {
		c, err = s.f.Boot(site, width)
	}
	if err != nil {
		return nil, nil, err
	}
	var infos []wire.ClassInfo
	for _, cls := range s.cls {
		t, err := c.Register(cls)
		if err != nil {
			return nil, nil, err
		}
		infos = append(infos, wire.ClassInfo{Name: t.Name(), Params: t.Params()})
	}
	if s.dir != "" {
		if _, err := c.System().OpenWAL(s.dir, wal.Options{GroupWindow: -1}); err != nil {
			return nil, nil, err
		}
	}
	return c, infos, nil
}

func (s *simFleet) Go(site int, loop func(submit func(wire.TxnRequest) error)) {
	s.ids++
	s.f.Eng.Spawn(s.ids, func(p rt.Proc) {
		loop(func(req wire.TxnRequest) error {
			c := s.sites[0]
			if s.spec.Procs > 0 {
				// A killed site's clients retry until it is back.
				for s.sites[site] == nil {
					p.Sleep(rt.Millisecond)
				}
				c = s.sites[site]
			}
			start := p.Now()
			err := c.Exec(p, site, req)
			if err != nil && p.Now() == start {
				// A refusal costs the client a round trip to its server; a
				// draining site's clients would otherwise spin in place.
				p.Sleep(rt.Millisecond)
			}
			return err
		})
	})
}

func (s *simFleet) Play(timeline func()) {
	s.f.Eng.Spawn(0, func(p rt.Proc) {
		s.tl = p
		timeline()
	})
	s.f.Eng.Run()
}

func (s *simFleet) Sleep(d time.Duration) { s.tl.Sleep(rt.Duration(d)) }

func (s *simFleet) Fire(ev drive.Event) error {
	switch ev.Kind {
	case drive.Kill:
		s.f.Kill(s.sites[ev.Site])
		s.sites[ev.Site] = nil
		c, _, err := s.boot(ev.Site, s.spec.Procs)
		if err == nil {
			err = c.System().RejoinFabric(s.tl)
		}
		if err != nil {
			return err
		}
		s.f.Attach(c)
		s.sites[ev.Site] = c
	case drive.Join:
		// The joiner takes its width from site 0's topology, fences its gone
		// slots, is admitted, and then opens its listener.
		j, _, err := s.boot(ev.Site, ev.Site+1)
		for k, st := range s.sites[0].SiteStatuses() {
			if st == "gone" && err == nil {
				err = j.MarkSiteGone(k)
			}
		}
		if err == nil {
			_, err = j.System().JoinCluster(s.tl, homeo.SimAddr(ev.Site))
		}
		if err != nil {
			return err
		}
		s.f.Attach(j)
		s.sites = append(s.sites, j)
	case drive.Drain:
		return s.sites[ev.Site].System().Drain(s.tl, ev.Site)
	}
	return nil
}

func (s *simFleet) Gather() ([]drive.Process, error) {
	var procs []drive.Process
	for _, c := range s.sites {
		p := drive.Process{Stats: httpapi.WireStats(c.Stats())}
		if s.spec.Procs > 0 {
			p.Log, p.Part = c.WireLog(), c.Partition()
		}
		procs = append(procs, p)
	}
	return procs, nil
}

func (s *simFleet) Close(bool) {
	for _, c := range s.sites {
		if c != nil { // a restart that failed
			c.Close()
		}
	}
}

// twins are the six drive smokes (coverage.sh runs all, ci.yml five): the
// -workload each names, its class file and its -drive string.
var twins = []struct{ name, workload, class, drive string }{
	{"tpcc", "tpcc", "", "clients=4,duration=2s"},
	{"drift", "micro", "", "clients=4,duration=2s"},
	{"class", "none", "withdraw.json", "clients=4,duration=2s,class=Withdraw"},
	{"procs", "none", "withdraw3.json", "clients=2,duration=3s,class=Withdraw,procs=3"},
	{"kill", "none", "withdraw3.json", "clients=2,duration=4s,class=Withdraw,procs=3,kill=1@mid"},
	{"elastic", "none", "withdraw3.json", "clients=2,duration=6s,class=Withdraw,procs=3,join=1@2s,drain=1@4s"},
}

// smokeOpts is what homeostasis-serve makes of a smoke's flags: its
// defaults, -sites 2 -rtt 40ms on an in-process drive, and the drift
// smoke's -workload micro -drift -alloc adaptive -items 100.
func smokeOpts(t *testing.T, workload string, spec drive.Spec) (o homeo.Options) {
	o = homeo.Options{Sites: 2, RTT: 40 * time.Millisecond, CPUPerSite: 4, LockTimeout: time.Second,
		Seed: 1, MaxInflight: 1024, LocalExecTime: 2 * time.Millisecond}
	var err error
	switch {
	case spec.Procs > 0:
		o.RTT = 50 * time.Millisecond
	case workload == "tpcc":
		o.Workload, err = tpcc.New(tpcc.Config{Warehouses: 2, DistrictsPerWarehouse: 2, StockPerWarehouse: 30, Customers: 200, NSites: 2, Seed: 1})
	case workload == "micro":
		o.Alloc = homeo.AllocAdaptive
		o.Workload, err = micro.New(micro.Config{Items: 100, Refill: 100, NSites: 2}.Drift())
	}
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// wallClockLines are the shapes of the drive's output that read the wall
// clock: how long a boot took and the throughput in real seconds.
var wallClockLines = regexp.MustCompile(`(?m)^booted .* in .*\n| \([0-9.]+ txn/s real\)`)

const twinsGolden = "testdata/drive_twins.golden"

// TestSimDrive plays each smoke's twin twice, with every pooled buffer
// scribbled over as it is released, and holds the two runs to one output,
// the same logs and partitions, and the golden section of that twin.
func TestSimDrive(t *testing.T) {
	scribbling(t)
	golden, err := os.ReadFile(twinsGolden)
	if err != nil && !*update {
		t.Fatal(err)
	}
	var all bytes.Buffer
	ran := 0
	for _, tw := range twins {
		t.Run(tw.name, func(t *testing.T) {
			ran++
			spec, err := drive.ParseSpec(tw.drive, drive.Flags{})
			if err != nil {
				t.Fatal(err)
			}
			spec.Warmup, spec.CheckReplay = 250*time.Millisecond, true
			if tw.class != "" {
				spec.Registers = []string{"../internal/drive/testdata/" + tw.class}
			}
			out, logs, parts := runTwin(t, smokeOpts(t, tw.workload, spec), spec)
			again, againLogs, againParts := runTwin(t, smokeOpts(t, tw.workload, spec), spec)
			if out != again || !reflect.DeepEqual(logs, againLogs) || !reflect.DeepEqual(parts, againParts) {
				t.Fatalf("two runs of one seed diverged:\n--- first ---\n%s\n--- second ---\n%s", out, again)
			}
			section := fmt.Sprintf("== %s: -drive %s\n%s", tw.name, tw.drive, out)
			all.WriteString(section)
			if !*update && !strings.Contains(string(golden), section) {
				t.Errorf("output differs from %s (rewrite it with -update only for a change that means to move it):\n%s", twinsGolden, section)
			}
		})
	}
	// -update rewrites the whole file, so only from a run of every twin.
	if *update && !t.Failed() && ran == len(twins) {
		if err := os.WriteFile(twinsGolden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSimDriveBaseWorkload: a procs=2 drive of the micro workload's own
// draws, no class registered, passes the merged replay. Each process logs
// its Orders, round winners included, by name and items, and the replay
// rebuilds them from the base workload.
func TestSimDriveBaseWorkload(t *testing.T) {
	scribbling(t)
	spec, err := drive.ParseSpec("clients=2,duration=2s,procs=2", drive.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	spec.CheckReplay = true
	opts := smokeOpts(t, "none", spec)
	if opts.Workload, err = micro.New(micro.Config{Items: 20, Refill: 20, NSites: 2}); err != nil {
		t.Fatal(err)
	}
	out, logs, _ := runTwin(t, opts, spec)
	orders, rounds := 0, 0
	for _, l := range logs {
		for _, e := range l {
			if e.Class == "Order" {
				orders++
			}
			if e.Round != nil {
				rounds++
			}
		}
	}
	if len(logs) != 2 || orders == 0 || rounds == 0 {
		t.Fatalf("%d logs, %d Orders, %d round winners: want 2 logs, Orders and winners\n%s", len(logs), orders, rounds, out)
	}
}

// runTwin runs one drive on a fresh simFleet and returns its output, with
// the wall-clock shapes taken out, and every site's log and partition.
func runTwin(t *testing.T, opts homeo.Options, spec drive.Spec) (string, [][]wire.LogEntry, []wire.PartitionResponse) {
	t.Helper()
	var out bytes.Buffer
	fl := &simFleet{t: t}
	rep, err := drive.Run(opts, spec, fl, &out)
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, &out)
	}
	if exit := rep.Verdict(&out); exit != 0 || rep.Replayed == 0 {
		t.Fatalf("verdict %d, report %+v\n%s", exit, rep, &out)
	}
	var logs [][]wire.LogEntry
	var parts []wire.PartitionResponse
	for _, c := range fl.sites {
		logs, parts = append(logs, c.WireLog()), append(parts, c.Partition())
	}
	return wallClockLines.ReplaceAllString(out.String(), ""), logs, parts
}
