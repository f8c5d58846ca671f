package drive

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/httpapi"
	"repro/internal/tpcc"
)

// TestParseSpec pins the -drive grammar: the defaults, every key, and every
// refusal's message — the spec's own and the cross-checks against the rest
// of the command line, which used to live in three places.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		in    string
		flags Flags
		want  Spec
		err   string
	}{
		{in: "clients=8", want: Spec{Clients: 8, Duration: 5 * time.Second}},
		{in: " clients=2 , duration=300ms,class=W", want: Spec{Clients: 2, Duration: 300 * time.Millisecond, Class: "W"}},
		{in: "duration=4s,class=W,procs=3,kill=1", want: Spec{Clients: 4, Duration: 4 * time.Second, Class: "W", Procs: 3,
			Events: []Event{{2 * time.Second, Kill, 1}}}},
		{in: "duration=4s,class=W,procs=3,kill=2@mid,kill=1@3s", want: Spec{Clients: 4, Duration: 4 * time.Second, Class: "W", Procs: 3,
			Events: []Event{{3 * time.Second, Kill, 1}}}},
		{in: "class=W,procs=2,join=1,drain=0@mid,duration=8s", want: Spec{Clients: 4, Duration: 8 * time.Second, Class: "W", Procs: 2,
			Events: []Event{{4 * time.Second, Join, 2}, {6 * time.Second, Drain, 0}}}},

		{in: "clients", err: `drive: bad option "clients" (want ` + Grammar + `)`},
		{in: "clients=0", err: `drive: bad clients "0"`},
		{in: "duration=-1s", err: `drive: bad duration "-1s"`},
		{in: "procs=1", err: `drive: bad procs "1" (want >= 2)`},
		{in: "kill=0", err: `drive: bad kill site "0" (want a spawned peer site >= 1)`},
		{in: "kill=1@soon", err: `drive: bad chaos time "soon" (want mid or a positive duration)`},
		{in: "join=2", err: `drive: bad join "2" (only join=1 is supported)`},
		{in: "drain=-1", err: `drive: bad drain site "-1"`},
		{in: "rate=5", err: `drive: unknown option "rate"`},
		{in: "kill=1", err: "drive: kill=1 needs procs=N (only spawned peer processes can be killed)"},
		{in: "join=1", err: "drive: join=/drain= need procs=N (elastic chaos runs over the multi-process fabric)"},
		{in: "drain=0", err: "drive: join=/drain= need procs=N (elastic chaos runs over the multi-process fabric)"},
		{in: "class=W,procs=2", flags: Flags{Site: true}, err: "-drive procs=N spawns its own peer processes; it cannot be combined with -site"},
		{in: "class=W,procs=2", flags: Flags{BaseWorkload: true}, err: "drive: procs=N needs -workload none plus -register/class= (merged replay reconstructs commits through registered classes)"},
		{in: "procs=2", err: "drive: procs=N needs -workload none plus -register/class= (merged replay reconstructs commits through registered classes)"},
		{in: "clients=2", flags: Flags{Join: true}, err: "-join cannot be combined with -drive (the drive mode's join=1 knob spawns its own joiner)"},
		{in: "class=W,procs=3,kill=3", err: "drive: kill=3 out of range (procs=3 spawns peer sites 1..2)"},
		{in: "class=W,procs=3,drain=3", err: "drive: drain=3 out of range (procs=3 runs original sites 0..2)"},
		{in: "class=W,procs=3,drain=1,kill=1", err: "drive: drain=1 and kill=1 name the same site"},
		// A chaos time outside the drive used to be replaced by the default
		// without a word.
		{in: "duration=4s,class=W,procs=3,kill=1@10s", err: "drive: kill time 10s is not inside the 4s drive"},
		{in: "duration=4s,class=W,procs=3,drain=1@4s", err: "drive: drain time 4s is not inside the 4s drive"},
	} {
		got, err := ParseSpec(tc.in, tc.flags)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseSpec(%q, %+v): error %v, want %q", tc.in, tc.flags, err, tc.err)
			}
		case err != nil:
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestTimelineOrder: events come out sorted by offset whatever order the
// keys were given in, a tie keeps kill < join < drain, and a time left out
// resolves against the duration wherever duration= stands.
func TestTimelineOrder(t *testing.T) {
	for in, want := range map[string][]Event{
		"class=W,procs=4,drain=2@1s,join=1@3s,kill=1@2s,duration=8s": {{time.Second, Drain, 2}, {2 * time.Second, Kill, 1}, {3 * time.Second, Join, 4}},
		"class=W,procs=4,drain=2@4s,join=1,kill=1,duration=8s":       {{4 * time.Second, Kill, 1}, {4 * time.Second, Join, 4}, {4 * time.Second, Drain, 2}},
		"drain=2,kill=1,duration=2s,class=W,procs=3":                 {{time.Second, Kill, 1}, {1500 * time.Millisecond, Drain, 2}},
	} {
		sp, err := ParseSpec(in, Flags{})
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		if !reflect.DeepEqual(sp.Events, want) {
			t.Errorf("ParseSpec(%q).Events = %v, want %v", in, sp.Events, want)
		}
	}
}

// TestVerdict: nothing committed, a failed replay check and a leaked process
// each fail the drive; a replay check that was not asked for does not.
func TestVerdict(t *testing.T) {
	ok := Report{Processes: 1, Committed: 9, Replayed: 9}
	for name, tc := range map[string]struct {
		edit func(*Report)
		exit int
		say  string
	}{
		"passes":        {func(*Report) {}, 0, "replay check:     OK (9 commits from 1 processes"},
		"unchecked":     {func(r *Report) { r.Replayed = 0 }, 0, ""},
		"no commits":    {func(r *Report) { r.Committed = 0 }, 1, "FAIL: no transactions committed"},
		"replay failed": {func(r *Report) { r.ReplayErr = errors.New("bal diverged") }, 1, "FAIL: replay equivalence: bal diverged"},
		"leak":          {func(r *Report) { r.Leaked = 2 }, 1, "FAIL: 2 processes still alive after drain"},
	} {
		rep := ok
		tc.edit(&rep)
		var out bytes.Buffer
		if exit := rep.Verdict(&out); exit != tc.exit || !strings.Contains(out.String(), tc.say) || (tc.say == "" && out.Len() > 0) {
			t.Errorf("%s: exit %d, want %d; said %q, want %q", name, exit, tc.exit, out.String(), tc.say)
		}
	}
}

// liveOpts is a small live cluster with short waits, the same in the test
// and in a child it spawns.
func liveOpts() homeo.Options {
	return homeo.Options{Runtime: homeo.RuntimeLive, Sites: 2, RTT: 4 * time.Millisecond,
		CPUPerSite: 4, LocalExecTime: 200 * time.Microsecond, Seed: 1}
}

// passed holds a finished drive to what every drive must show.
func passed(t *testing.T, rep Report, err error, out *bytes.Buffer, processes int) {
	t.Helper()
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	if rep.Committed == 0 || rep.Processes != processes {
		t.Errorf("report %+v: want commits, from %d processes\n%s", rep, processes, out)
	}
	if rep.ReplayErr != nil || rep.Replayed == 0 {
		t.Errorf("replay check did not pass: %+v", rep)
	}
	if rep.Leaked != 0 {
		t.Errorf("%d runtime processes alive after teardown", rep.Leaked)
	}
	if exit := rep.Verdict(out); exit != 0 {
		t.Errorf("verdict %d\n%s", exit, out)
	}
}

// TestDriveInProcess runs the whole sequence on the live runtime, every site
// in this process: a class from a file registered over HTTP and driven by
// name, and a base workload's mix.
func TestDriveInProcess(t *testing.T) {
	t.Run("class", func(t *testing.T) {
		spec, err := ParseSpec("clients=2,duration=300ms,class=Withdraw", Flags{})
		if err != nil {
			t.Fatal(err)
		}
		spec.Warmup, spec.CheckReplay, spec.Verbose = 20*time.Millisecond, true, true
		spec.Registers = []string{"testdata/withdraw.json"}
		var out bytes.Buffer
		rep, err := Run(liveOpts(), spec, nil, &out)
		passed(t, rep, err, &out, 1)
		if !strings.Contains(out.String(), "registered class Withdraw(n)") {
			t.Errorf("the class file was not registered:\n%s", &out)
		}
		spec.Class = "Deposit"
		if _, err := Run(liveOpts(), spec, nil, io.Discard); err == nil || !strings.Contains(err.Error(), `class "Deposit" was not registered`) {
			t.Errorf("driving an unregistered class: %v", err)
		}
	})
	t.Run("tpcc", func(t *testing.T) {
		opts := liveOpts()
		var err error
		if opts.Workload, err = tpcc.New(tpcc.Config{Warehouses: 2, DistrictsPerWarehouse: 2, StockPerWarehouse: 30, Customers: 200, NSites: 2, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec("clients=2,duration=300ms", Flags{BaseWorkload: true})
		if err != nil {
			t.Fatal(err)
		}
		spec.Warmup, spec.CheckReplay = 20*time.Millisecond, true
		var out bytes.Buffer
		rep, err := Run(opts, spec, nil, &out)
		passed(t, rep, err, &out, 1)
	})
}

// TestDriveProcs drives two OS processes over the HTTP site fabric with a
// drain on the timeline: this test as site 0 and, for site 1, the test
// binary re-executed as TestChildSite.
func TestDriveProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process")
	}
	spec, err := ParseSpec("clients=2,duration=600ms,class=Withdraw,procs=2,drain=1", Flags{})
	if err != nil {
		t.Fatal(err)
	}
	spec.CheckReplay, spec.Registers = true, []string{"testdata/withdraw3.json"}
	spawn := func(args ...string) *exec.Cmd {
		return exec.Command(os.Args[0], append([]string{"-test.run=^TestChildSite$", "--", "-register", spec.Registers[0]}, args...)...)
	}
	var out bytes.Buffer
	rep, err := Run(liveOpts(), spec, spawn, &out)
	passed(t, rep, err, &out, 2)
	if !strings.Contains(out.String(), "chaos: drain site 1 done") {
		t.Errorf("the drain did not play:\n%s", &out)
	}
}

// TestChildSite is not a test: re-executed by TestDriveProcs with the flags
// of a spawned site after "--", it serves that site the way homeostasis-serve
// -site does — boot, register, Recover, listen — until it is signalled.
func TestChildSite(t *testing.T) {
	if len(flag.Args()) == 0 {
		t.Skip("only runs as a child of TestDriveProcs")
	}
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	register := fs.String("register", "", "")
	site := fs.Int("site", 0, "")
	peers := fs.String("peers", "", "")
	addr := fs.String("addr", "", "")
	token := fs.String("peer-token", "", "")
	fs.Bool("enable-log", false, "")
	fs.String("wal-dir", "", "")
	_ = fs.Parse(flag.Args())
	opts := liveOpts()
	opts.Sites, opts.EnableLog = 0, true
	opts.Fabric = &homeo.FabricOptions{Site: *site, Token: *token}
	for _, p := range strings.Split(*peers, ",") {
		opts.Fabric.Peers = append(opts.Fabric.Peers, "http://"+p)
	}
	c, err := Boot(opts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	req, err := LoadClass(*register)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(homeo.ClassSpec(req)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Fatal(http.ListenAndServe(*addr, httpapi.NewHandler(c)))
}
