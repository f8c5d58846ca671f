package homeostasis

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/wal"
)

// roundRecord is what one round shipped, copied when it was delivered.
type roundRecord struct {
	units  []int
	objs   []lang.ObjID
	folded lang.Database
	winner bool
}

// recordingFabric wraps the in-process transport and keeps a copy of the
// footprint every round-1 message carried and of the state every install
// carried — copies, because the coordinator reuses the memory behind both.
// While refuse is positive a Collect materializes its message, as a
// transport does before a peer can answer, and then fails busy; while fail
// is set a Collect fails with it.
type recordingFabric struct {
	fabric.Transport
	collects []roundRecord
	installs []roundRecord
	refuse   int
	fail     error
}

func (r *recordingFabric) Collect(p rt.Proc, from int, mkMsg func() fabric.CollectState) ([]fabric.StateReply, error) {
	record := func() fabric.CollectState {
		m := mkMsg()
		r.collects = append(r.collects, roundRecord{units: slices.Clone(m.Units), objs: slices.Clone(m.Objs)})
		return m
	}
	if r.fail != nil {
		return nil, r.fail
	}
	if r.refuse > 0 {
		r.refuse--
		p.Sleep(rt.Millisecond)
		record()
		return nil, &fabric.SiteError{Site: 1, Err: fabric.ErrBusy}
	}
	return r.Transport.Collect(p, from, record)
}

func (r *recordingFabric) Install(p rt.Proc, from int, m fabric.InstallState) error {
	r.installs = append(r.installs, roundRecord{objs: slices.Clone(m.Objs), folded: m.Folded.Clone(), winner: m.Winner != nil})
	return r.Transport.Install(p, from, m)
}

// recordedSystem builds a 2-site simulated system over the microbenchmark
// whose rounds go through a recordingFabric.
func recordedSystem(t *testing.T, opts Options) (*sim.Engine, *System, *micro.Workload, *recordingFabric) {
	t.Helper()
	w, err := micro.New(micro.Config{Items: 6, Refill: 12, NSites: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(opts.Seed)
	sys, err := New(eng, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []fabric.Node{sys.Node(0), sys.Node(1)}
	rec := &recordingFabric{Transport: fabric.NewLocal(opts.Topo, nodes)}
	sys.SetFabric(rec, -1)
	return eng, sys, w, rec
}

// checkRound fails unless a round shipped exactly the objects of the
// given items, ascending, and folded exactly those.
func checkRound(t *testing.T, what string, got roundRecord, items ...int) {
	t.Helper()
	var want []lang.ObjID
	for _, it := range items {
		want = append(want, micro.ItemObj(it))
	}
	slices.Sort(want)
	if !slices.Equal(got.objs, want) {
		t.Errorf("%s: footprint %v, want %v", what, got.objs, want)
	}
	if got.folded != nil {
		keys := got.folded.Objects()
		if !slices.Equal(keys, want) {
			t.Errorf("%s: folded state holds %v, want %v", what, keys, want)
		}
	}
}

// TestRoundScratchIsolation drives rounds whose coordinator state comes
// from one reused scratch and checks that none sees another's: two
// back-to-back rounds on different units, a two-unit round (the merged
// footprint) followed by a one-unit one that has no winner (a drain's kind
// of round: nothing of the round before may stand in for the winner it
// lacks), and a round refused busy after its message was built, whose retry
// must find the scratch as good as new. The second half lets clients at
// both sites loose with batching on, so rounds over different units
// interleave at their park points and
// queued violators join rounds in flight, and checks every round the
// same way plus the serial replay of everything committed.
func TestRoundScratchIsolation(t *testing.T) {
	opts := Options{
		Mode:          ModeOpt,
		Topo:          cluster.Uniform(2, 10*rt.Millisecond),
		CPUPerSite:    4,
		LocalExecTime: rt.Microsecond,
		Seed:          3,
		EnableLog:     true,
	}
	eng, sys, w, rec := recordedSystem(t, opts)
	var execErr error
	// sync buys the given items at site 0 until a purchase pays a round.
	sync := func(p rt.Proc, items ...int) {
		for i := 0; i < 100 && execErr == nil; i++ {
			res, err := sys.ExecRequest(p, 0, w.MakeRequest(items))
			if err != nil {
				execErr = err
			}
			if res.Synced {
				return
			}
		}
		t.Errorf("items %v: no purchase paid a round", items)
	}
	eng.Spawn(0, func(p rt.Proc) {
		sync(p, 0)
		sync(p, 1)
		sync(p, 2, 3)
		if execErr == nil {
			execErr = sys.winnerlessRound(p, 0, sys.Units[2])
		}
		sync(p, 4)
		rec.refuse = 1
		sync(p, 5)
	})
	eng.Run()
	if execErr != nil {
		t.Fatal(execErr)
	}
	const winnerless = 3 // its place among the installs
	rounds := [][]int{{0}, {1}, {2, 3}, {2}, {4}, {5}, {5}}
	if len(rec.collects) != len(rounds) || len(rec.installs) != len(rounds)-1 {
		t.Fatalf("%d collects and %d installs, want %d and %d", len(rec.collects), len(rec.installs), len(rounds), len(rounds)-1)
	}
	for i, items := range rounds {
		checkRound(t, "scripted collect", rec.collects[i], items...)
		if !slices.Equal(rec.collects[i].units, items) {
			t.Errorf("round %d: units %v, want %v", i, rec.collects[i].units, items)
		}
	}
	for i, items := range [][]int{{0}, {1}, {2, 3}, {2}, {4}, {5}} {
		checkRound(t, "scripted install", rec.installs[i], items...)
		if got := rec.installs[i].winner; got != (i != winnerless) {
			t.Errorf("install %d: carries a winner = %v", i, got)
		}
	}
	if len(sys.roundFree) != 1 || len(sys.rounds) != 0 {
		t.Errorf("%d scratches on the free list and %d rounds open after serial rounds, want 1 and 0", len(sys.roundFree), len(sys.rounds))
	}
	if err := sys.CheckReplayEquivalence(); err != nil {
		t.Error(err)
	}

	opts.Alloc = AllocEqualSplit
	opts.ClientsPerSite = 6
	opts.Measure = 2 * rt.Second
	_, sys, _, rec = recordedSystem(t, opts)
	sys.Run()
	if sys.Col.CoWinnerCommits == 0 || len(sys.roundFree) < 2 {
		t.Fatalf("%d co-winners, %d scratches: the drive produced no joined or no overlapping rounds", sys.Col.CoWinnerCommits, len(sys.roundFree))
	}
	// On the microbenchmark a unit is an item and every purchase stays
	// inside its units, so a round's footprint is its units' items, and
	// what an install folds is what it ships.
	for _, c := range rec.collects {
		checkRound(t, "driven collect", c, c.units...)
	}
	for _, in := range rec.installs {
		checkRound(t, "driven install", in, items(in.objs)...)
	}
	if err := sys.CheckReplayEquivalence(); err != nil {
		t.Error(err)
	}
}

// items maps microbenchmark objects back to their item numbers.
func items(objs []lang.ObjID) []int {
	var out []int
	for it := 0; it < 6; it++ {
		if slices.Contains(objs, micro.ItemObj(it)) {
			out = append(out, it)
		}
	}
	return out
}

// TestRoundPostconditions: a violation round, a drain's absorb rounds and
// a single winnerless round are one procedure, so each must leave behind
// what the others do — the units released and whoever waited on them
// woken, no open round, the scratch scrubbed and back on the free list,
// every unit's treaty one generation on, and in each site's WAL one install
// and one treaty record per round. Only a winner leaves a commit and a
// negotiation sample.
func TestRoundPostconditions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		winner bool
		units  []int // the units the case runs one round over, each
		run    func(p rt.Proc, sys *System, w *micro.Workload) error
	}{
		{"winner round", true, []int{0}, func(p rt.Proc, sys *System, w *micro.Workload) error {
			for i := 0; i < 100; i++ {
				if res, err := sys.ExecRequest(p, 0, w.MakeRequest([]int{0})); err != nil || res.Synced {
					return err
				}
			}
			return errors.New("no purchase paid a round")
		}},
		{"drain absorb", false, []int{0, 1, 2, 3, 4, 5}, func(p rt.Proc, sys *System, _ *micro.Workload) error {
			return sys.Drain(p, 1)
		}},
		{"winnerless round", false, []int{3}, func(p rt.Proc, sys *System, _ *micro.Workload) error {
			return sys.winnerlessRound(p, 0, sys.Units[3])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, sys, w, _ := recordedSystem(t, Options{
				Mode:          ModeOpt,
				Topo:          cluster.Uniform(2, 10*rt.Millisecond),
				CPUPerSite:    4,
				LocalExecTime: rt.Microsecond,
				Seed:          3,
				EnableLog:     true,
			})
			dir := t.TempDir()
			if _, err := sys.OpenWAL(dir, wal.Options{GroupWindow: -1}); err != nil {
				t.Fatal(err)
			}
			sys.Col.Measuring = true
			versions := make([]int64, len(sys.Units))
			for i, u := range sys.Units {
				versions[i] = u.version
			}
			// A process that finds a unit of the case frozen waits on it.
			done, woken := false, 0
			eng.Spawn(1, func(p rt.Proc) {
				for !done {
					for _, id := range tc.units {
						if u := sys.Units[id]; u.negotiating {
							sys.waitForUnit(p, u)
							woken++
						}
					}
					p.Sleep(rt.Millisecond)
				}
			})
			var runErr error
			eng.Spawn(0, func(p rt.Proc) {
				runErr = tc.run(p, sys, w)
				done = true
			})
			eng.Run()
			if runErr != nil {
				t.Fatal(runErr)
			}

			if woken < len(tc.units) {
				t.Errorf("%d waits on a frozen unit returned, want one per round (%d)", woken, len(tc.units))
			}
			for _, u := range sys.Units {
				if u.negotiating || u.neg != nil || len(u.waiters) != 0 {
					t.Errorf("unit %d left frozen or waited on", u.id)
				}
				want := versions[u.id]
				if slices.Contains(tc.units, u.id) {
					want++
				}
				if u.version != want {
					t.Errorf("unit %d at treaty version %d, want %d", u.id, u.version, want)
				}
			}
			if len(sys.rounds) != 0 || len(sys.roundFree) != 1 {
				t.Fatalf("%d rounds open and %d scratches free, want 0 and 1", len(sys.rounds), len(sys.roundFree))
			}
			rs := sys.roundFree[0]
			if rs.neg != nil || rs.units != nil || rs.req.Units != nil || rs.req.Apply != nil || rs.joiners != nil ||
				len(rs.objs)+len(rs.folded)+len(rs.unitFolded)+len(rs.joinerLogs) != 0 ||
				rs.winner.Class != "" || rs.winner.Units != nil || rs.grant.units != nil || rs.grant.winner != nil {
				t.Errorf("the scratch came back holding its round: %+v", rs)
			}
			for k := range rs.installs {
				if len(rs.installs[k].Units) != 0 {
					t.Errorf("the scratch came back holding site %d's treaties", k)
				}
			}

			roundCommits := 0
			for _, c := range sys.CommitLog {
				if c.Round != nil {
					roundCommits++
				}
			}
			wantCommits := 0
			if tc.winner {
				wantCommits = 1
			}
			if roundCommits != wantCommits || sys.Col.NegotiationLatency.N() != wantCommits {
				t.Errorf("%d round commits and %d negotiation samples, want %d of each",
					roundCommits, sys.Col.NegotiationLatency.N(), wantCommits)
			}

			if err := sys.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				data, err := os.ReadFile(walPath(dir, k))
				if err != nil {
					t.Fatal(err)
				}
				recs, _ := wal.Scan(data)
				installs, treaties := 0, 0
				for _, r := range recs {
					switch r.Kind {
					case wal.KindInstall:
						installs++
					case wal.KindTreaty:
						treaties++
					}
				}
				if installs != len(tc.units) || treaties != len(tc.units) {
					t.Errorf("site %d logged %d installs and %d treaties, want %d of each", k, installs, treaties, len(tc.units))
				}
			}
		})
	}
}

// TestExecRefusesWhatTheProtocolCannotRun: a request the protocol cannot
// run fails with ErrProtocol, names itself and commits nothing — one that
// names a unit no class registered, and one whose violation starts a round
// that cannot reach its peers.
func TestExecRefusesWhatTheProtocolCannotRun(t *testing.T) {
	opts := Options{
		Mode:          ModeOpt,
		Topo:          cluster.Uniform(2, 10*rt.Millisecond),
		CPUPerSite:    4,
		LocalExecTime: rt.Microsecond,
		Seed:          3,
		EnableLog:     true,
	}
	eng, sys, w, rec := recordedSystem(t, opts)
	refused := func(what string, err error, want ...string) {
		t.Helper()
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", what, err)
			return
		}
		for _, s := range append(want, "request Order") {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%s: error %q does not mention %q", what, err, s)
			}
		}
	}
	eng.Spawn(0, func(p rt.Proc) {
		req := w.MakeRequest([]int{0})
		req.Units = append(req.Units, len(sys.Units))
		_, err := sys.ExecRequest(p, 0, req)
		refused("unknown unit", err, fmt.Sprintf("names unknown unit %d", len(sys.Units)))

		rec.fail = errors.New("peer 1 unreachable")
		for i := 0; i < 100; i++ {
			before := len(sys.CommitLog)
			if _, err := sys.ExecRequest(p, 0, w.MakeRequest([]int{0})); err != nil {
				refused("unreachable round", err, "peer 1 unreachable")
				if len(sys.CommitLog) != before {
					t.Error("the refused request committed")
				}
				return
			}
		}
		t.Error("no purchase needed a round")
	})
	eng.Run()
	if len(sys.rounds) != 0 || len(sys.Units) == 0 || sys.Units[0].negotiating {
		t.Errorf("the refused round stayed open: %d rounds, unit 0 negotiating", len(sys.rounds))
	}
}
