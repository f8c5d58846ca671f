package homeostasis

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/homeo/wire"
	"repro/internal/cluster"
	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/treaty"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The streaming replay of durable.go against the oracle it replaced
// (replay_oracle_test.go): whatever log the two are given, they must
// leave the same system behind or refuse it alike.

const replayItems = 6

// replayCluster is the simulated cluster of the replay tests: the
// microbenchmark, commit log on, one System per site over fabric.Sim.
func replayCluster(t testing.TB) *simCluster {
	return newSimCluster(t, 10*rt.Millisecond, Options{
		CPUPerSite:    4,
		LocalExecTime: rt.Microsecond,
		Seed:          3,
		EnableLog:     true,
	}, func(width int) workload.Workload {
		w, err := micro.New(micro.Config{Items: replayItems, Refill: 12, ItemsPerTxn: 2, NSites: width})
		if err != nil {
			t.Fatal(err)
		}
		return w
	})
}

// replaySystem boots the system a replay test recovers into: two sites of
// replayCluster's, all of them in one System when self < 0, else the System
// that owns site self (alone on its net: replay sends nothing). Every call
// boots the same system, which is recovery's precondition.
func replaySystem(t testing.TB, self int) (*sim.Engine, *System, *micro.Workload) {
	t.Helper()
	c := replayCluster(t)
	var sys *System
	if self >= 0 {
		sys = c.boot(self, 2)
	} else {
		opts := c.opts
		opts.Topo = cluster.Uniform(2, c.rtt)
		var err error
		if sys, err = New(c.eng, c.mk(2), opts); err != nil {
			t.Fatal(err)
		}
	}
	return c.eng, sys, sys.W.(*micro.Workload)
}

// recoveredState is everything replay is there to put back.
type recoveredState struct {
	Log      []Committed
	Stores   []lang.Database
	Locals   [][]treaty.Local
	Versions []int64
	RoundSeq uint64
	Clock    int64
	Epoch    int64
	Status   []siteStatus
	Addrs    []string
}

func stateOf(sys *System) recoveredState {
	s := recoveredState{
		Log: logEntries(&sys.CommitLog), RoundSeq: sys.roundSeq, Clock: sys.clock, Epoch: sys.epoch,
		Status: sys.status, Addrs: sys.siteAddrs,
	}
	for _, st := range sys.Stores {
		s.Stores = append(s.Stores, st.Snapshot())
	}
	for i, u := range sys.Units {
		s.Locals = append(s.Locals, sys.UnitLocals(i))
		s.Versions = append(s.Versions, u.version)
	}
	return s
}

// sameState fails the test, field by field, where got differs from want.
func sameState(t *testing.T, what string, got, want recoveredState) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("%s: %s differs:\n got %+v\nwant %+v", what, g.Type().Field(i).Name, g.Field(i), w.Field(i))
		}
	}
	if len(got.Log) == len(want.Log) {
		for i := range want.Log {
			if !reflect.DeepEqual(got.Log[i], want.Log[i]) {
				t.Errorf("%s: first differing log entry %d:\n got %+v\nwant %+v", what, i, got.Log[i], want.Log[i])
				break
			}
		}
	}
}

// logGen writes random logs for the replaySystem cluster, record by
// record in the order replay will meet them (site 0's file, site 1's,
// then those of the sites a membership record admitted), tracking the
// width replay will have reached so that what it writes is replayable.
// Membership records only go in when member is set: only a System that
// owns one site replays them.
type logGen struct {
	rng      *rand.Rand
	width    int // cluster width replay has grown to so far
	clock    int64
	unsorted bool // now and then step a log's clock backwards
	member   bool
	rounds   []wal.RoundID
}

var genClasses = []string{"Order", "Refund", "Restock", "a-class-no-registry-holds"}

func (g *logGen) ints64(max int) []int64 {
	var out []int64
	for n := g.rng.Intn(max + 1); n > 0; n-- {
		out = append(out, g.rng.Int63n(2000)-1000)
	}
	return out
}

// objName draws an object name: an item, one of its delta objects (of a
// site that may not exist yet), or a name no unit knows.
func (g *logGen) objName() string {
	obj := micro.ItemObj(g.rng.Intn(replayItems))
	switch g.rng.Intn(8) {
	case 0:
		return string(obj)
	case 1:
		return fmt.Sprintf("stray[%d]", g.rng.Intn(3))
	}
	return string(lang.DeltaObj(obj, g.rng.Intn(g.width+1)))
}

func (g *logGen) values(max int) map[string]int64 {
	var out map[string]int64
	for n := g.rng.Intn(max + 1); n > 0; n-- {
		if out == nil {
			out = map[string]int64{}
		}
		out[g.objName()] = g.rng.Int63n(200) - 100
	}
	return out
}

// treatyCoeffs draws a treaty constraint's coefficients over the site's own
// partition — its delta objects, and at site 0 base objects and names no
// unit knows as well — since replay refuses a treaty over anything else.
func (g *logGen) treatyCoeffs(site, max int) map[string]int64 {
	var out map[string]int64
	for n := g.rng.Intn(max + 1); n > 0; n-- {
		if out == nil {
			out = map[string]int64{}
		}
		name := g.objName()
		if placement(lang.ObjID(name)) != site {
			name = string(lang.DeltaObj(micro.ItemObj(g.rng.Intn(replayItems)), site))
		}
		out[name] = g.rng.Int63n(200) - 100
	}
	return out
}

// round draws a round id, one seen before a third of the time (the same
// winner logged twice, an install and its treaties sharing a round).
func (g *logGen) round() wal.RoundID {
	if len(g.rounds) > 0 && g.rng.Intn(3) == 0 {
		return g.rounds[g.rng.Intn(len(g.rounds))]
	}
	rid := wal.RoundID{Site: g.rng.Intn(g.width), Seq: uint64(g.rng.Intn(400))}
	g.rounds = append(g.rounds, rid)
	return rid
}

func (g *logGen) tick() int64 {
	g.clock += g.rng.Int63n(3)
	if g.unsorted && g.rng.Intn(40) == 0 {
		g.clock -= 5
	}
	return g.clock
}

// write appends n random records to site's log.
func (g *logGen) write(t *testing.T, l *wal.Log, site, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var err error
		switch k := g.rng.Intn(100); {
		case k < 60:
			rec := wal.CommitRecord{
				Class: genClasses[g.rng.Intn(len(genClasses))], Args: g.ints64(3), Site: site,
				Log: g.ints64(2), Clock: g.tick(),
			}
			for n := g.rng.Intn(3); n > 0; n-- {
				rec.Units = append(rec.Units, g.rng.Intn(replayItems))
			}
			if g.rng.Intn(4) == 0 { // a round's winner, perhaps adopted from another site
				rid := g.round()
				rec.Round, rec.Site = &rid, g.rng.Intn(g.width)
			} else {
				rec.Writes = g.values(4)
			}
			err = l.AppendCommit(rec)
		case k < 75:
			rec := wal.InstallRecord{Round: g.round(), Clock: g.tick(), Sites: g.rng.Intn(g.width + 2),
				Base: map[string]int64{}, Drift: g.values(2)}
			for n := 1 + g.rng.Intn(3); n > 0; n-- {
				obj := g.objName()
				rec.Objs = append(rec.Objs, obj) // in no order, perhaps twice
				if g.rng.Intn(6) != 0 {          // perhaps with no folded value
					rec.Base[obj] = g.rng.Int63n(50)
				}
			}
			if g.rng.Intn(6) == 0 {
				rec.Base["folded-but-not-in-the-footprint"] = 7
			}
			err = l.AppendInstall(rec)
		case k < 95 || !g.member:
			rec := wal.TreatyRecord{Unit: g.rng.Intn(replayItems), Site: g.rng.Intn(g.width),
				Version: g.rng.Int63n(12), Clock: g.tick()}
			if g.rng.Intn(2) == 0 {
				rid := g.round()
				rec.Round = &rid
			}
			for n := g.rng.Intn(4); n > 0; n-- {
				rec.Constraints = append(rec.Constraints, wire.PeerConstraint{
					Coeffs: g.treatyCoeffs(rec.Site, 3), Const: g.rng.Int63n(40) - 20, Op: []string{"<=", "<", "=="}[g.rng.Intn(3)]})
			}
			err = l.AppendTreaty(rec)
		default:
			if g.width < 4 && g.rng.Intn(2) == 0 {
				g.width++
			}
			rec := wal.MembershipRecord{Epoch: g.rng.Int63n(9), Width: g.width, Clock: g.tick()}
			for k := 0; k < g.width; k++ {
				rec.Status = append(rec.Status, g.rng.Intn(5)/4) // mostly active
				rec.Addrs = append(rec.Addrs, []string{"", fmt.Sprintf("http://site-%d:80", k)}[g.rng.Intn(2)])
			}
			err = l.AppendMembership(rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// randomLogs fills dir with the logs of one random history, membership
// records included when member is set, and returns how many files it
// wrote. Some histories end a file in a torn tail.
func randomLogs(t *testing.T, dir string, seed int64, member bool) int {
	t.Helper()
	g := &logGen{rng: rand.New(rand.NewSource(seed)), width: 2, unsorted: seed%3 == 0, member: member}
	site := 0
	for ; site < g.width; site++ {
		path := walPath(dir, site)
		l, _, err := wal.Open(path, wal.Options{GroupWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		g.clock = g.rng.Int63n(20) // every site runs its own clock
		g.write(t, l, site, 40+g.rng.Intn(160))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if g.rng.Intn(3) == 0 {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := append(data[:len(data)-1-g.rng.Intn(12)], 0xFF, 0, 0, 9)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return site
}

func copyLogs(t *testing.T, from string, files int) string {
	t.Helper()
	to := t.TempDir()
	for k := 0; k < files; k++ {
		data, err := os.ReadFile(walPath(from, k))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(to, k), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// replayBuffers replays the logs under dir into sys the way OpenWAL does
// but out of buffers the caller owns, scribbles over each buffer once its
// log is replayed, and only then rebuilds the commit log: whatever replay
// kept must by then be its own.
func replayBuffers(t *testing.T, sys *System, dir string) (int, error) {
	t.Helper()
	logs := make([]wal.Prefix, sys.Opts.Topo.NSites())
	for k := range logs {
		if sys.self >= 0 && k != sys.self {
			continue
		}
		data, err := os.ReadFile(walPath(dir, k))
		if err != nil {
			t.Fatal(err)
		}
		valid, _ := wal.Frames(data, nil)
		logs[k] = data[:valid]
	}
	rp := sys.newReplay(logs)
	recovered := 0
	for k, data := range logs {
		n, err := rp.applyWAL(k, data)
		read := data[:cap(data)] // torn tail included
		for i := range read {
			read[i] = 0xFF
		}
		if err != nil {
			return recovered, err
		}
		recovered += n
	}
	rp.commitLog()
	return recovered, nil
}

// TestReplayMatchesOracle replays random logs — all four record kinds,
// multi-unit commits, print logs, drifts, round winners logged twice and
// adopted across sites, stale and superseded treaty generations,
// membership growth, torn tails, clocks that run backwards — three ways:
// the oracle, OpenWAL, and replay out of caller-owned buffers that are
// overwritten afterwards. All three must recover the same state. Odd seeds
// replay site 0's log, membership records included, into the System that
// owns site 0; even seeds every log into one System holding both sites.
func TestReplayMatchesOracle(t *testing.T) {
	scribbling(t)
	for seed := int64(1); seed <= 60; seed++ {
		self := -1
		if seed%2 == 1 {
			self = 0
		}
		dir := t.TempDir()
		files := randomLogs(t, dir, seed, self >= 0)

		_, oracle, _ := replaySystem(t, self)
		wantN, wantErr := oracle.openWALOracle(copyLogs(t, dir, files), wal.Options{})
		if wantErr != nil {
			t.Fatalf("seed %d: the generator wrote a log the oracle refuses: %v", seed, wantErr)
		}
		want := stateOf(oracle)
		if seed <= 2 && (len(want.Log) == 0 || self >= 0 && want.Epoch == 0) {
			t.Fatalf("seed %d: the generated history recovers %d commits, epoch %d: too thin to test anything", seed, len(want.Log), want.Epoch)
		}

		_, sys, _ := replaySystem(t, self)
		gotN, err := sys.OpenWAL(copyLogs(t, dir, files), wal.Options{})
		if err != nil || gotN != wantN {
			t.Fatalf("seed %d: OpenWAL = (%d, %v), the oracle recovered %d records", seed, gotN, err, wantN)
		}
		sameState(t, fmt.Sprintf("seed %d, OpenWAL", seed), stateOf(sys), want)

		_, sys, _ = replaySystem(t, self)
		gotN, err = replayBuffers(t, sys, dir)
		if err != nil || gotN != wantN {
			t.Fatalf("seed %d: replay from buffers = (%d, %v), the oracle recovered %d records", seed, gotN, err, wantN)
		}
		sameState(t, fmt.Sprintf("seed %d, buffers overwritten", seed), stateOf(sys), want)
		for _, s := range []*System{oracle, sys} {
			if err := s.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// TestReplayOwnsWhatItKeeps is the ownership rule on a log a cluster
// really wrote — two Systems on fabric.Sim and a third that joins: site
// 0's log, replayed out of a caller's buffers that are then overwritten,
// recovers what the oracle does, its slab slices cannot grow into each
// other, and the System booted on it goes on serving in its predecessor's
// place — a fresh commit extends the recovered log.
func TestReplayOwnsWhatItKeeps(t *testing.T) {
	scribbling(t)
	dir := t.TempDir()
	c := replayCluster(t)
	live := append(c.bootAll(2), c.boot(2, 3))
	for _, s := range live {
		if _, err := s.OpenWAL(dir, wal.Options{GroupWindow: -1}); err != nil {
			t.Fatal(err)
		}
	}
	var runErr error
	rounds := 0
	c.eng.Spawn(0, func(p rt.Proc) {
		rng := rand.New(rand.NewSource(5))
		order := func(site int) {
			a := rng.Intn(replayItems)
			res, err := live[site].ExecRequest(p, site, live[site].W.(*micro.Workload).MakeRequest([]int{a, (a + 1 + rng.Intn(replayItems-1)) % replayItems}))
			if err != nil && runErr == nil {
				runErr = err
			}
			if res.Synced {
				rounds++
			}
		}
		for i := 0; i < 150; i++ {
			order(i % 2)
		}
		if _, err := live[2].JoinCluster(p, simAddr(2)); err != nil {
			runErr = err
			return
		}
		c.attach(live[2])
		for i := 0; i < 90; i++ {
			order(i % 3)
		}
	})
	c.eng.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rounds == 0 || live[0].NSites() != 3 {
		t.Fatalf("the history has %d rounds and %d sites: it must cover installs, treaties and a join", rounds, live[0].NSites())
	}
	for _, s := range live {
		if err := s.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}

	_, oracle, _ := replaySystem(t, 0)
	if _, err := oracle.openWALOracle(copyLogs(t, dir, 3), wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer oracle.CloseWAL()
	want := stateOf(oracle)
	if len(want.Log) != live[0].CommitLog.Len() || want.Epoch == 0 {
		t.Fatalf("the oracle recovers %d commits of %d, epoch %d", len(want.Log), live[0].CommitLog.Len(), want.Epoch)
	}

	c.net.Detach(simAddr(0))
	sys := c.boot(0, 2)
	if _, err := replayBuffers(t, sys, dir); err != nil {
		t.Fatal(err)
	}
	sameState(t, "buffers overwritten", stateOf(sys), want)

	for i := range sys.CommitLog.Len() {
		e := sys.CommitLog.At(i)
		if cap(e.Args) != len(e.Args) {
			t.Fatalf("log entry %d has room to grow into its neighbour: args %d/%d", i, len(e.Args), cap(e.Args))
		}
	}
	c.attach(sys)
	before := sys.CommitLog.Len()
	c.eng.Spawn(0, func(p rt.Proc) {
		_, runErr = sys.ExecRequest(p, 0, sys.W.(*micro.Workload).MakeRequest([]int{0, 1}))
	})
	c.eng.Run()
	if runErr != nil || sys.CommitLog.Len() != before+1 {
		t.Fatalf("a commit after recovery: %v, log %d → %d entries", runErr, before, sys.CommitLog.Len())
	}
	if !reflect.DeepEqual(logEntries(&sys.CommitLog)[:before], want.Log) {
		t.Error("the commit after recovery disturbed the recovered log")
	}
}

// TestReplayRefusesSizesNoCRCVouchesFor: a record can be well-framed and
// still wrong — a bad disk under a matching CRC, a log from a deployment
// of another size — and replay must refuse a width or a site index beyond
// maxWALSites instead of growing the cluster, or the loop that zeroes
// delta snapshots, to match. Indices inside the bound but beyond the
// current width stay legal: a joiner's log names its own slot before the
// membership record that admits it has been replayed.
func TestReplayRefusesSizesNoCRCVouchesFor(t *testing.T) {
	commitAt := func(site int) func(*wal.Log) error {
		return func(l *wal.Log) error { return l.AppendCommit(wal.CommitRecord{Class: "Order", Site: site, Clock: 4}) }
	}
	winnerOf := func(site int) func(*wal.Log) error {
		return func(l *wal.Log) error {
			return l.AppendCommit(wal.CommitRecord{Class: "Order", Site: 0, Clock: 4, Round: &wal.RoundID{Site: site, Seq: 3}})
		}
	}
	installOver := func(sites int) func(*wal.Log) error {
		return func(l *wal.Log) error {
			return l.AppendInstall(wal.InstallRecord{Round: wal.RoundID{Seq: 1}, Clock: 4, Sites: sites,
				Objs: []string{"stock[0]"}, Base: map[string]int64{"stock[0]": 3}})
		}
	}
	widthOf := func(width int) func(*wal.Log) error {
		return func(l *wal.Log) error {
			return l.AppendMembership(wal.MembershipRecord{Epoch: 1, Width: width, Clock: 4})
		}
	}
	for _, tc := range []struct {
		name   string
		append func(*wal.Log) error
		refuse string // "" when replay must accept the record
	}{
		{"commit at a negative site", commitAt(-1), "commit at site -1"},
		{"commit at a site past the bound", commitAt(maxWALSites), "commit at site 1024"},
		{"commit at a joiner's slot", commitAt(7), ""},
		{"winner of a round of a negative site", winnerOf(-1), "round of site -1"},
		{"winner of a round past the bound", winnerOf(maxWALSites), "round of site 1024"},
		{"winner of a joiner's round", winnerOf(maxWALSites - 1), ""},
		{"install across too many sites", installOver(maxWALSites + 1), "install across 1025"},
		{"install across the widest cluster", installOver(maxWALSites), ""},
		{"membership wider than the bound", widthOf(maxWALSites + 1), "membership of width 1025"},
		{"membership of a plausible width", widthOf(5), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := wal.Open(walPath(dir, 0), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// A sound record first: the refusal must name the second.
			if err := commitAt(0)(l); err != nil {
				t.Fatal(err)
			}
			if err := tc.append(l); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, sys, _ := replaySystem(t, 0)
			defer sys.CloseWAL()
			n, err := sys.OpenWAL(dir, wal.Options{})
			if tc.refuse == "" {
				if err != nil || n != 2 {
					t.Fatalf("OpenWAL = (%d, %v), want both records replayed", n, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("replay accepted the record (width now %d)", sys.NSites())
			}
			for _, want := range []string{"site 0 WAL record 1:", tc.refuse, "1024 sites"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if sys.NSites() != 2 || sys.CommitLog.Len() != 0 {
				t.Errorf("the refused log left width %d and %d commits behind", sys.NSites(), sys.CommitLog.Len())
			}
		})
	}
}

// TestReplayRefusesTreatyOverAnotherSitesObjects: a treaty record is held to
// what an install-treaties body is — a log naming, for site 1's slot, site
// 0's delta or a base object is refused by record index, and the same
// record over site 1's own delta replays.
func TestReplayRefusesTreatyOverAnotherSitesObjects(t *testing.T) {
	obj := micro.ItemObj(0)
	for _, tc := range []struct {
		over   lang.ObjID
		refuse bool
	}{
		{lang.DeltaObj(obj, 0), true},
		{obj, true},
		{lang.DeltaObj(obj, 1), false},
	} {
		dir := t.TempDir()
		l, _, err := wal.Open(walPath(dir, 0), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendCommit(wal.CommitRecord{Class: "Order", Site: 0, Clock: 4}); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendTreaty(wal.TreatyRecord{Unit: 0, Site: 1, Version: 5, Clock: 6,
			Constraints: []wire.PeerConstraint{{Coeffs: map[string]int64{string(tc.over): -1}, Const: -5, Op: "<="}}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, sys, _ := replaySystem(t, -1)
		n, err := sys.OpenWAL(dir, wal.Options{})
		sys.CloseWAL()
		switch {
		case !tc.refuse && (err != nil || n != 2):
			t.Errorf("treaty over %s: OpenWAL = (%d, %v), want both records replayed", tc.over, n, err)
		case tc.refuse && (err == nil || !strings.Contains(err.Error(), "site 0 WAL record 1:") ||
			!strings.Contains(err.Error(), string(tc.over))):
			t.Errorf("treaty over %s: OpenWAL error = %v, want a refusal of record 1 naming it", tc.over, err)
		}
	}
}

// TestReplayRefusesUnknownKindAndUnit: a well-framed record replay cannot
// place — a kind this build does not know, a treaty for a unit no class
// registered, a membership record in the log of a System that holds every
// site — is refused by site and record, not skipped.
func TestReplayRefusesUnknownKindAndUnit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		append func(*wal.Log) error
		refuse string
	}{
		{"unknown kind", func(l *wal.Log) error { return l.Append(wal.Kind(9), []byte{1}) },
			"site 0 WAL record 1 has unknown kind kind(9)"},
		{"unknown unit", func(l *wal.Log) error {
			return l.AppendTreaty(wal.TreatyRecord{Unit: 99, Site: 1, Version: 5, Clock: 6})
		}, "site 0 WAL names unknown unit 99"},
		{"negative unit", func(l *wal.Log) error {
			return l.AppendTreaty(wal.TreatyRecord{Unit: -1, Site: 1, Version: 5, Clock: 6})
		}, "site 0 WAL names unknown unit -1"},
		{"membership record", func(l *wal.Log) error {
			return l.AppendMembership(wal.MembershipRecord{Epoch: 1, Width: 2, Clock: 6})
		}, "site 0 WAL record 1: homeostasis: replaying a membership record needs a multi-process cluster"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := wal.Open(walPath(dir, 0), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendCommit(wal.CommitRecord{Class: "Order", Site: 0, Clock: 4}); err != nil {
				t.Fatal(err)
			}
			if err := tc.append(l); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, sys, _ := replaySystem(t, -1)
			defer sys.CloseWAL()
			if _, err := sys.OpenWAL(dir, wal.Options{}); err == nil || !strings.Contains(err.Error(), tc.refuse) {
				t.Fatalf("OpenWAL error = %v, want %q", err, tc.refuse)
			}
		})
	}
}

// segmentOf returns the replay scratch of runs replayed one after the
// other into one segment of log, as applyWAL leaves it.
func segmentOf(log *CommitLog, runs ...[]Committed) *replay {
	rp := &replay{log: log}
	for _, run := range runs {
		for _, e := range run {
			rp.seg = append(rp.seg, log.pack(log.classID(e.Name), e))
		}
		if len(run) > 0 {
			rp.runs = append(rp.runs, len(rp.seg))
		}
	}
	return rp
}

// TestCommitLogMerge: sorted runs merge, where they lie in the segment,
// into what a stable sort of their concatenation gives — ties across runs
// to the earlier run, ties within a run in file order — after the log's
// own entries, which stay where they were, and the segment, a single run's
// as much as a merge's, becomes the log's without a copy.
func TestCommitLogMerge(t *testing.T) {
	entry := func(clock int64, site int, tag string) Committed {
		return Committed{Name: tag, Clock: clock, Site: site}
	}
	names := func(log *CommitLog) string {
		var b bytes.Buffer
		for _, e := range logEntries(log) {
			b.WriteString(e.Name + " ")
		}
		return strings.TrimSpace(b.String())
	}
	var log CommitLog
	log.add(entry(99, 0, "kept"))
	kept := log.entry(0)
	if (&replay{log: &log}).commitLog(); names(&log) != "kept" {
		t.Errorf("no runs: merged to %q, want the log as it was", names(&log))
	}
	rp := segmentOf(&log,
		[]Committed{entry(1, 0, "a1"), entry(3, 1, "a2"), entry(3, 1, "a3"), entry(7, 0, "a4")},
		[]Committed{entry(2, 1, "b1"), entry(3, 0, "b2"), entry(3, 1, "b3"), entry(8, 1, "b4")},
		[]Committed{entry(3, 1, "c1")},
	)
	rp.commitLog()
	if got, want := names(&log), "kept a1 b1 b2 a2 a3 b3 c1 a4 b4"; got != want {
		t.Errorf("merged to %q, want %q", got, want)
	}
	if log.entry(0) != kept || len(log.segs) != 2 || log.entry(1) != &rp.seg[0] {
		t.Error("the merge moved the log's own entries or copied the segment")
	}
	one := segmentOf(&log, []Committed{entry(1, 0, "x"), entry(2, 0, "y")})
	one.commitLog()
	if log.entry(log.Len()-2) != &one.seg[0] {
		t.Error("a single run was copied instead of adopted as a segment")
	}

	// Seeded logs of commit records — late round winners (logged behind
	// commits with later clocks), clocks equal across sites, ties within a
	// log, a winner logged twice — replayed and merged: the commit log is
	// the stable sort of the logs' concatenation in file order by (Clock,
	// Site), each log's second copy of a winner dropped.
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		logs := make([]wal.Prefix, 1+rng.Intn(2)) // replaySystem has two sites
		var want []Committed
		for k := range logs {
			l, _, err := wal.Open(walPath(dir, k), wal.Options{GroupWindow: -1})
			if err != nil {
				t.Fatal(err)
			}
			clock := int64(rng.Intn(4))
			var winners []wal.RoundID
			for i, n := 0, rng.Intn(60); i < n; i++ {
				rec := wal.CommitRecord{Class: fmt.Sprintf("s%d.%d", k, i), Site: rng.Intn(3), Clock: clock}
				switch x := rng.Intn(8); {
				case x == 0 && clock > 3: // a late winner
					rec.Clock = clock - 1 - int64(rng.Intn(3))
					rec.Round = &wal.RoundID{Site: k, Seq: uint64(i)}
					winners = append(winners, *rec.Round)
				case x == 1 && len(winners) > 0: // a winner logged again
					rec.Round = &winners[rng.Intn(len(winners))]
				case x < 5:
					clock += int64(rng.Intn(2)) // ties within the log
				}
				if err := l.AppendCommit(rec); err != nil {
					t.Fatal(err)
				}
				if rec.Round == nil || rec.Round.Seq == uint64(i) { // not a second copy
					want = append(want, Committed{Name: rec.Class, Site: rec.Site, Clock: rec.Clock})
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, logs[k], err = wal.Open(walPath(dir, k), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
		}
		slices.SortStableFunc(want, func(a, b Committed) int {
			return cmp.Or(cmp.Compare(a.Clock, b.Clock), cmp.Compare(a.Site, b.Site))
		})

		_, sys, _ := replaySystem(t, -1)
		merged := &sys.CommitLog
		merged.add(Committed{Name: "kept", Clock: 99})
		kept := merged.entry(0)
		rp := sys.newReplay(logs)
		for k, data := range logs {
			if _, err := rp.applyWAL(k, data); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		rp.commitLog()
		var got []string
		for _, e := range logEntries(merged)[1:] {
			got = append(got, fmt.Sprintf("%s@%d/%d", e.Name, e.Clock, e.Site))
		}
		var exp []string
		for _, e := range want {
			exp = append(exp, fmt.Sprintf("%s@%d/%d", e.Name, e.Clock, e.Site))
		}
		if !slices.Equal(got, exp) {
			t.Fatalf("seed %d: %d runs merged to\n%v\nwant\n%v", seed, len(rp.runs), got, exp)
		}
		if merged.entry(0) != kept || merged.At(0).Name != "kept" || len(want) > 0 && merged.entry(1) != &rp.seg[0] {
			t.Fatalf("seed %d: the merge moved the log's own entries or copied the segment", seed)
		}
	}
}
