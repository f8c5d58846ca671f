package homeo_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/homeo"
	"repro/internal/cluster"
	"repro/internal/homeostasis"
	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/sim"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// BenchmarkSubmitExecCommit measures the serving hot path in isolation:
// one treaty-checked execution (Exec/*), one synchronization round
// (Round/Sim) and one full Session.Submit round trip (Submit/*), on each
// runtime. The Exec variants are the
// pooled fast path CI gates at 0 allocs/op: a huge refill keeps the
// treaty from ever being violated, so no iteration enters the cleanup
// phase and every allocation observed belongs to the per-commit path
// itself. Run serially (-benchtime with no -cpu) — the container CI
// uses is 1-core and the numbers in BENCH_hotpath.json are serial.
func BenchmarkSubmitExecCommit(b *testing.B) {
	b.Run("Exec/Sim", benchExecSim)
	b.Run("Exec/Live", benchExecLive)
	b.Run("Round/Sim", benchRoundSim)
	b.Run("Submit/Sim", benchSubmitSim)
	b.Run("Submit/Live", benchSubmitLive)
}

// benchWorkload builds the micro workload with an effectively infinite
// refill: site budgets stay far from their treaty bounds for any
// reachable b.N, so the fast path never negotiates.
func benchWorkload(b *testing.B) (*micro.Workload, workload.Request) {
	b.Helper()
	w, err := micro.New(micro.Config{Items: 4, Refill: 1 << 40, NSites: 2})
	if err != nil {
		b.Fatal(err)
	}
	return w, w.MakeRequest([]int{0})
}

func benchExecOpts() homeostasis.Options {
	return homeostasis.Options{
		Mode:           homeostasis.ModeHomeo,
		Topo:           cluster.Uniform(2, 20*rt.Millisecond),
		ClientsPerSite: 1,
		CPUPerSite:     2,
		LocalExecTime:  rt.Microsecond,
		LockTimeout:    100 * rt.Millisecond,
		Seed:           42,
	}
}

func benchExecSim(b *testing.B) {
	w, req := benchWorkload(b)
	eng := sim.NewEngine(1)
	sys, err := homeostasis.New(eng, w, benchExecOpts())
	if err != nil {
		b.Fatal(err)
	}
	var execErr error
	eng.Spawn(0, func(p rt.Proc) {
		for i := 0; i < 64; i++ { // warm pools before the measured window
			if _, err := sys.ExecRequest(p, 0, req); err != nil {
				execErr = err
				return
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.ExecRequest(p, 0, req); err != nil {
				execErr = err
				return
			}
		}
	})
	eng.Run()
	if execErr != nil {
		b.Fatal(execErr)
	}
}

func benchExecLive(b *testing.B) {
	w, req := benchWorkload(b)
	live := rtlive.New(1)
	sys, err := homeostasis.New(live, w, benchExecOpts())
	if err != nil {
		b.Fatal(err)
	}
	var execErr error
	done := make(chan struct{})
	live.Spawn(0, func(p rt.Proc) {
		defer close(done)
		for i := 0; i < 64; i++ {
			if _, err := sys.ExecRequest(p, 0, req); err != nil {
				execErr = err
				return
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.ExecRequest(p, 0, req); err != nil {
				execErr = err
				return
			}
		}
	})
	<-done
	live.Drain()
	if execErr != nil {
		b.Fatal(execErr)
	}
}

// roundSystem builds a 2-site simulated system over two refill-100 Buy
// classes of one isomorphism family, compiled through the artifact cache
// like every class a cluster registers. Requests go to the second class,
// a family member rather than the representative: that is what 63 of the
// ledger's 64 classes are. About one purchase in eight violates its
// treaty and pays a round.
func roundSystem(tb testing.TB) (*sim.Engine, *homeostasis.System, *workload.Registry, *workload.Class) {
	tb.Helper()
	reg, err := workload.NewRegistry(nil, 2)
	if err != nil {
		tb.Fatal(err)
	}
	ac := workload.NewArtifactCache()
	bounds := treaty.ParamBounds{"n": {1, 3}}
	var member *workload.Class
	for k := 0; k < 2; k++ {
		src := fmt.Sprintf("transaction Buy%d(n) { v := read(stock%d); if (v - n > 0) then write(stock%d = v - n) else write(stock%d = v - n + 100) }", k, k, k, k)
		c, _, err := ac.CompileL(src, 2, bounds)
		if err != nil {
			tb.Fatal(err)
		}
		if err := reg.Register(c, lang.Database{lang.ObjID(fmt.Sprintf("stock%d", k)): 100}); err != nil {
			tb.Fatal(err)
		}
		member = c
	}
	eng := sim.NewEngine(1)
	opts := benchExecOpts()
	opts.LocalExecTime = rt.Nanosecond
	sys, err := homeostasis.New(eng, reg, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, sys, reg, member
}

// roundDriver issues the member class's purchases from one seeded
// stream. The three requests it can draw (n = 1, 2, 3) are built once, so
// what a purchase allocates is the engine's alone.
type roundDriver struct {
	sys  *homeostasis.System
	reqs [3]workload.Request
	rng  *rand.Rand
}

func newRoundDriver(tb testing.TB, sys *homeostasis.System, reg *workload.Registry, c *workload.Class) *roundDriver {
	tb.Helper()
	d := &roundDriver{sys: sys, rng: rand.New(rand.NewSource(1))}
	for i := range d.reqs {
		req, err := reg.Request(c, []int64{int64(i + 1)})
		if err != nil {
			tb.Fatal(err)
		}
		d.reqs[i] = req
	}
	return d
}

// next executes one purchase at site 0 and reports whether it paid a
// synchronization round.
func (d *roundDriver) next(p rt.Proc) (bool, error) {
	res, err := d.sys.ExecRequest(p, 0, d.reqs[d.rng.Intn(len(d.reqs))])
	return res.Synced, err
}

// warmRounds is how many rounds fill the deriver's memo for every state a
// round can start from: about a hundred stock levels, plus the boundary
// region's pins. The last of them is first met at round 2 198.
const warmRounds = 3000

// warm runs purchases until warmRounds of them paid a round.
func (d *roundDriver) warm(p rt.Proc) error {
	for rounds := 0; rounds < warmRounds; {
		synced, err := d.next(p)
		if err != nil {
			return err
		}
		if synced {
			rounds++
		}
	}
	return nil
}

// benchRoundSim measures one steady-state synchronization round on the
// simulator: collect, fold, T′, install, treaty derivation with the
// deriver's memo warm, distribute. b.N counts rounds. The purchases
// between two rounds run too, but Exec/Sim holds them at 0 allocations, so
// allocs/round is the round's own; ns/round is the time of the purchases
// that paid a round.
func benchRoundSim(b *testing.B) {
	eng, sys, reg, c := roundSystem(b)
	d := newRoundDriver(b, sys, reg, c)
	var execErr error
	eng.Spawn(0, func(p rt.Proc) {
		if execErr = d.warm(p); execErr != nil {
			return
		}
		var before, after runtime.MemStats
		var inRounds time.Duration
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for rounds := 0; rounds < b.N; {
			start := time.Now()
			synced, err := d.next(p)
			if err != nil {
				execErr = err
				return
			}
			if synced {
				inRounds += time.Since(start)
				rounds++
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/round")
		b.ReportMetric(float64(inRounds.Nanoseconds())/float64(b.N), "ns/round")
	})
	eng.Run()
	if execErr != nil {
		b.Fatal(execErr)
	}
}

const benchDepositSrc = `
transaction Deposit(n) {
	v := read(acct);
	write(acct = v + n)
}`

// benchCluster builds a 2-site cluster with a guard-free deposit class:
// its treaty is trivially true, so submissions never synchronize and the
// benchmark isolates the submit→exec→commit machinery.
func benchCluster(b *testing.B, opts homeo.Options) (*homeo.Cluster, *homeo.TxnClass) {
	b.Helper()
	opts.Seed = 7
	c, err := homeo.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	cls, err := c.Register(homeo.ClassSpec{
		L:       benchDepositSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"acct": 0},
	})
	if err != nil {
		b.Fatal(err)
	}
	return c, cls
}

func benchSubmit(b *testing.B, kind homeo.RuntimeKind) {
	c, cls := benchCluster(b, homeo.Options{Runtime: kind})
	sess := c.Session()
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if _, err := sess.Submit(ctx, cls, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Submit(ctx, cls, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSubmitSim(b *testing.B)  { benchSubmit(b, homeo.RuntimeSim) }
func benchSubmitLive(b *testing.B) { benchSubmit(b, homeo.RuntimeLive) }
