package homeo_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/homeo"
)

// recoveryImage runs a simulated two-site cluster with a write-ahead log
// through the given number of commits — sixteen refill-100 Buy classes
// of one family, each site buying its own half so that no two rounds
// duel, about one purchase in fourteen paying a round — closes it, and
// returns a function that boots an identical cluster over the log it
// left, ready for Recover. The log is only read from then on, so every
// cluster booted recovers the same bytes.
func recoveryImage(tb testing.TB, commits int) (boot func() *homeo.Cluster) {
	tb.Helper()
	dir := tb.TempDir()
	const classes = 16
	specs := make([]homeo.ClassSpec, classes)
	for k := range specs {
		specs[k] = homeo.ClassSpec{
			L: fmt.Sprintf("transaction Buy%d(n) { v := read(stock%d); if (v - n > 0) then write(stock%d = v - n) else write(stock%d = v - n + 100) }",
				k, k, k, k),
			Bounds:  map[string][2]int64{"n": {1, 3}},
			Initial: map[string]int64{fmt.Sprintf("stock%d", k): int64(1 + (k*100/classes+37)%100)},
		}
	}
	mk := func() (*homeo.Cluster, []*homeo.TxnClass) {
		c, err := homeo.New(homeo.Options{
			Runtime:       homeo.RuntimeSim,
			Sites:         2,
			LocalExecTime: time.Nanosecond,
			Seed:          7,
			EnableLog:     true,
			WAL:           homeo.WALOptions{Dir: dir},
		})
		if err != nil {
			tb.Fatal(err)
		}
		cls, err := c.RegisterBatch(specs)
		if err != nil {
			tb.Fatal(err)
		}
		return c, cls
	}
	c, cls := mk()
	if n, err := c.Recover(); err != nil || n != 0 { // first boot: opens the empty logs
		tb.Fatalf("first boot recovered (%d, %v)", n, err)
	}
	ctx, rng := context.Background(), rand.New(rand.NewSource(7))
	var sessions [2]*homeo.Session
	for s := range sessions {
		var err error
		if sessions[s], err = c.SessionAt(s); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < commits; i++ {
		site := i % 2
		k := 2*rng.Intn(classes/2) + site
		if res, err := sessions[site].Submit(ctx, cls[k], 1+rng.Int63n(3)); err != nil || !res.Committed {
			tb.Fatalf("building the log: submit %d: %+v, %v", i, res, err)
		}
	}
	c.Close() // flushes and closes the logs
	return func() *homeo.Cluster {
		c, _ := mk()
		return c
	}
}

// BenchmarkRecover measures Cluster.Recover — open both sites' logs,
// replay them, rebuild the merged commit log — per WAL record, at two
// log lengths so that the slope is on file beside the point (ROADMAP,
// "Bounded recovery"). An iteration boots a fresh cluster, untimed, and
// recovers the whole image. allocs/record is what CI gates; the numbers
// are recorded in BENCH_hotpath.json, section "recovery".
func BenchmarkRecover(b *testing.B) {
	for _, commits := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("commits=%d", commits), func(b *testing.B) {
			boot := recoveryImage(b, commits)
			var before, after runtime.MemStats
			var mallocs, bytes uint64
			records := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := boot()
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				n, err := c.Recover()
				b.StopTimer()
				runtime.ReadMemStats(&after)
				if err != nil || c.Committed() != commits {
					b.Fatalf("Recover = (%d, %v), %d of %d commits back", n, err, c.Committed(), commits)
				}
				c.Close()
				mallocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
				records += n
			}
			b.ReportMetric(float64(mallocs)/float64(records), "allocs/record")
			b.ReportMetric(float64(bytes)/float64(records), "B/record")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
			b.ReportMetric(float64(records)/float64(b.N), "records")
			b.ReportMetric(float64(bytes)/float64(b.N)/1e6, "MB/recover")
		})
	}
}
