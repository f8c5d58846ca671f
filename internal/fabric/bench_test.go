package fabric_test

import (
	"testing"

	"repro/internal/fabric/fabrictest"
	"repro/internal/rt"
)

// BenchmarkNegotiationRoundTrip measures one full cleanup-phase exchange
// over fabric.HTTP on loopback (fabrictest.Loopback: site 0 local, site 1 a
// real HTTP server). Its allocs/op is the round budget's count over HTTP
// (docs/ARCHITECTURE.md), gated by CI against BENCH_hotpath.json.
func BenchmarkNegotiationRoundTrip(b *testing.B) {
	l := fabrictest.NewLoopback(b)
	var benchErr error
	done := make(chan struct{})
	l.Live.Spawn(0, func(p rt.Proc) {
		defer close(done)
		for i := 0; i < 16; i++ {
			if err := l.Round(p); err != nil {
				benchErr = err
				return
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Round(p); err != nil {
				benchErr = err
				return
			}
		}
	})
	<-done
	l.Live.Drain()
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}
