package homeostasis

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/treaty"
	"repro/internal/wal"
)

// BenchmarkLogTreaty measures what a site pays to log one installed
// treaty generation — constraint conversion, payload encode, frame and
// the buffered write — for a two-constraint local treaty, the shape a
// stock unit's round installs. GroupWindow is negative so every append
// flushes inline, as in BenchmarkWALAppend. Baselines in
// BENCH_hotpath.json.
func BenchmarkLogTreaty(b *testing.B) {
	w, err := micro.New(micro.Config{Items: 4, Refill: 1 << 30, NSites: 2})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(sim.NewEngine(1), w, Options{Topo: cluster.Uniform(2, 2*rt.Millisecond), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.OpenWAL(b.TempDir(), wal.Options{GroupWindow: -1}); err != nil {
		b.Fatal(err)
	}
	defer sys.CloseWAL()
	constraint := func(c int64) treaty.Constraint {
		return treaty.Constraint{Terms: []treaty.Term{
			{Obj: "stock[3]", Coeff: -1}, {Obj: lang.DeltaObj("stock[3]", 0), Coeff: -1},
		}, Const: c, Op: lia.LE}
	}
	local := treaty.Local{Site: 0, Constraints: []treaty.Constraint{constraint(20), constraint(35)}}
	rid := fabric.RoundID{Site: 1, Seq: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.logTreaty(0, 0, local, int64(i), 41, &rid)
	}
}
