package homeostasis

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/sim"
)

// roundRecord is what one round shipped, copied when it was delivered.
type roundRecord struct {
	units  []int
	objs   []lang.ObjID
	folded lang.Database
}

// recordingFabric wraps the in-process transport and keeps a copy of the
// footprint every round-1 message carried and of the state every install
// carried — copies, because the coordinator reuses the memory behind both.
// While refuse is positive a Collect materializes its message, as a
// transport does before a peer can answer, and then fails busy.
type recordingFabric struct {
	fabric.Transport
	collects []roundRecord
	installs []roundRecord
	refuse   int
}

func (r *recordingFabric) Collect(p rt.Proc, from int, mkMsg func() fabric.CollectState) ([]fabric.StateReply, error) {
	record := func() fabric.CollectState {
		m := mkMsg()
		r.collects = append(r.collects, roundRecord{units: slices.Clone(m.Units), objs: slices.Clone(m.Objs)})
		return m
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
	r.installs = append(r.installs, roundRecord{objs: slices.Clone(m.Objs), folded: m.Folded.Clone()})
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
// footprint) followed by a one-unit one, and a round refused busy after
// its message was built, whose retry must find the scratch as good as
// new. The second half lets clients at both sites loose with batching on,
// so rounds over different units interleave at their park points and
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
		sync(p, 4)
		rec.refuse = 1
		sync(p, 5)
	})
	eng.Run()
	if execErr != nil {
		t.Fatal(execErr)
	}
	rounds := [][]int{{0}, {1}, {2, 3}, {4}, {5}, {5}}
	if len(rec.collects) != len(rounds) || len(rec.installs) != len(rounds)-1 {
		t.Fatalf("%d collects and %d installs, want %d and %d", len(rec.collects), len(rec.installs), len(rounds), len(rounds)-1)
	}
	for i, items := range rounds {
		checkRound(t, "scripted collect", rec.collects[i], items...)
		if !slices.Equal(rec.collects[i].units, items) {
			t.Errorf("round %d: units %v, want %v", i, rec.collects[i].units, items)
		}
	}
	for i, items := range [][]int{{0}, {1}, {2, 3}, {4}, {5}} {
		checkRound(t, "scripted install", rec.installs[i], items...)
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
