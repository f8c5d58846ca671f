package homeo_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/homeo"
	"repro/internal/lang"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// buyStockLevels is what the ledger's simcore set-up registers
// (benchmark/gen.go, classSet with refill 100): 64 Buy classes over two
// sites, each site's 32 stocks evenly spaced over (0, 100] in a seeded
// order from a seeded offset.
func buyStockLevels(seed int64) []homeo.ClassSpec {
	const nClasses, nSites, refill = 64, 2, 100
	rng := rand.New(rand.NewSource(seed*1_000_003 + 11))
	out := make([]homeo.ClassSpec, nClasses)
	const perSite = nClasses / nSites
	for site := 0; site < nSites; site++ {
		order, shift := rng.Perm(perSite), rng.Int63n(refill)
		for j, i := range order {
			k := i*nSites + site
			out[k] = homeo.ClassSpec{
				L: fmt.Sprintf("transaction Buy%d(n) { v := read(stock%d); if (v - n > 0) then write(stock%d = v - n) else write(stock%d = v - n + %d) }",
					k, k, k, k, refill),
				Bounds:  map[string][2]int64{"n": {1, 3}},
				Initial: map[string]int64{fmt.Sprintf("stock%d", k): 1 + (int64(j)*refill/perSite+shift)%refill},
			}
		}
	}
	return out
}

// stockSolve is one registration's treaty solve: the template, the folded
// values and the workload model its derivation hands Optimize.
type stockSolve struct {
	tmpl   *treaty.Template
	folded lang.Database
	model  treaty.WorkloadModel
}

// stockSolves derives the inputs of the 64 solves a simcore set-up makes
// while it registers its classes.
func stockSolves(tb testing.TB) []stockSolve {
	tb.Helper()
	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Sites: 2, LocalExecTime: time.Nanosecond, CPUPerSite: 64, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	classes, err := c.RegisterBatch(buyStockLevels(1))
	if err != nil {
		tb.Fatal(err)
	}
	sys := c.System()
	reg := sys.W.(*workload.Registry)
	all := sys.FoldedDB()
	place := func(obj lang.ObjID) int {
		if _, site, ok := lang.IsDeltaObj(obj); ok {
			return site
		}
		return 0
	}
	out := make([]stockSolve, len(classes))
	for i, cl := range classes {
		unit := reg.Class(cl.Name()).Unit()
		folded := lang.Database{}
		for _, obj := range reg.UnitObjects(unit) {
			folded[obj] = all.Get(obj)
		}
		g, err := reg.BuildGlobal(unit, folded)
		if err != nil {
			tb.Fatal(err)
		}
		tmpl, err := treaty.BuildTemplate(g, 2, place)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = stockSolve{tmpl, folded, reg.Model(unit)}
	}
	return out
}

// BenchmarkOptimizeStockLevels is the treaty work of a simcore set-up:
// one cold treaty.Optimize of each of the 64 Buy classes at its starting
// stock, with the cluster's default Algorithm 1 knobs (L = 20, f = 3).
// One op is all 64 solves. CI gates allocs/op at the value recorded in
// BENCH_registration.json (solver_speed.baselines.OptimizeStockLevels)
// + 20 % and ns/op at a 4× backstop.
func BenchmarkOptimizeStockLevels(b *testing.B) {
	solves := stockSolves(b)
	rngs := make([]*rand.Rand, len(solves))
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(int64(k)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A cluster seeds its stream once; seeding is not the solve's.
		b.StopTimer()
		for k, rng := range rngs {
			rng.Seed(int64(k))
		}
		b.StartTimer()
		for k, s := range solves {
			if cfg, _ := treaty.Optimize(s.tmpl, s.folded, s.model, treaty.OptimizeOptions{Lookahead: 20, CostFactor: 3, Rng: rngs[k]}); cfg == nil {
				b.Fatal("nil config")
			}
		}
	}
}
