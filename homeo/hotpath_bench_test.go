package homeo_test

import (
	"context"
	"testing"

	"repro/homeo"
	"repro/internal/cluster"
	"repro/internal/homeostasis"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkSubmitExecCommit measures the serving hot path in isolation:
// one treaty-checked execution (Exec/*) and one full Session.Submit
// round trip (Submit/*), on each runtime. The Exec variants are the
// pooled fast path CI gates at 0 allocs/op: a huge refill keeps the
// treaty from ever being violated, so no iteration enters the cleanup
// phase and every allocation observed belongs to the per-commit path
// itself. Run serially (-benchtime with no -cpu) — the container CI
// uses is 1-core and the numbers in BENCH_hotpath.json are serial.
func BenchmarkSubmitExecCommit(b *testing.B) {
	b.Run("Exec/Sim", benchExecSim)
	b.Run("Exec/Live", benchExecLive)
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
