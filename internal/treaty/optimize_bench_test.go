package treaty_test

import (
	"math/rand"
	"testing"

	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/treaty"
)

// benchSolveInputs builds one representative negotiation solve: the
// micro withdraw guard over a 4-site replica group, the exact template
// the protocol derives when a violated unit renegotiates.
func benchSolveInputs(b *testing.B) (*treaty.Template, lang.Database, treaty.WorkloadModel) {
	b.Helper()
	return solveInputs(b, 1000, 4)
}

// solveInputs derives the template for a micro withdraw unit with the
// given refill quantity and replica-group width (shared by the warm-start
// benchmark and the warm==cold equivalence tests).
func solveInputs(tb testing.TB, refill int64, nSites int) (*treaty.Template, lang.Database, treaty.WorkloadModel) {
	tb.Helper()
	w, err := micro.New(micro.Config{Items: 1, Refill: refill, NSites: nSites})
	if err != nil {
		tb.Fatal(err)
	}
	folded := lang.Database{}
	initial := w.InitialDB()
	for _, obj := range w.UnitObjects(0) {
		folded[obj] = initial.Get(obj)
	}
	g, err := w.BuildGlobal(0, folded)
	if err != nil {
		tb.Fatal(err)
	}
	place := func(obj lang.ObjID) int {
		if _, site, ok := lang.IsDeltaObj(obj); ok {
			return site
		}
		return 0
	}
	tmpl, err := treaty.BuildTemplate(g, nSites, place)
	if err != nil {
		tb.Fatal(err)
	}
	return tmpl, folded, w.Model(0)
}

// BenchmarkNegotiationSolve times the per-unit treaty solve on the
// renegotiation path. Cold runs the optimizer from scratch, exactly as
// a unit's first negotiation does. Warm passes the config the previous
// solve produced as a warm-start hint, the steady-state renegotiation
// shape once a unit has negotiated at least once. Both variants draw
// from a freshly seeded rng each iteration so the sampled futures are
// identical; recorded in BENCH_registration.json.
func BenchmarkNegotiationSolve(b *testing.B) {
	tmpl, folded, model := benchSolveInputs(b)
	opts := func() treaty.OptimizeOptions {
		return treaty.OptimizeOptions{
			Lookahead:  20,
			CostFactor: 3,
			Rng:        rand.New(rand.NewSource(42)),
		}
	}
	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := opts()
			if cfg, _ := treaty.Optimize(tmpl, folded, model, o); cfg == nil {
				b.Fatal("nil config")
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		prev, _ := treaty.Optimize(tmpl, folded, model, opts())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := opts()
			o.Warm = prev
			if cfg, _ := treaty.Optimize(tmpl, folded, model, o); cfg == nil {
				b.Fatal("nil config")
			}
		}
	})
}

// TestColdSolveAllocs holds a cold solve to an allocation ceiling: the
// configuration it returns, one string per distinct soft constraint and
// the model's scratch database, nothing per sampled state or per
// constraint. (The map-and-big.Rat path took 4 890.)
func TestColdSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the solver scratch at random under the race detector")
	}
	tmpl, folded, model := solveInputs(t, 1000, 4)
	rng := rand.New(rand.NewSource(42))
	allocs := testing.AllocsPerRun(50, func() {
		rng.Seed(42)
		cfg, _ := treaty.Optimize(tmpl, folded, model, treaty.OptimizeOptions{Lookahead: 20, CostFactor: 3, Rng: rng})
		if cfg == nil {
			t.Fatal("nil config")
		}
	})
	if allocs > 100 {
		t.Fatalf("cold solve allocates %.0f objects, ceiling 100", allocs)
	}
}
