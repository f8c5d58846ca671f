// Package repro_test holds the repository-level benchmark harness: one
// sub-benchmark per table and figure of the paper's evaluation (Section 6
// and Appendix F), each regenerating the experiment end to end at a
// reduced scale. Use cmd/homeostasis-bench for full-scale runs.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkExperiments regenerates every report once per iteration, one
// sub-benchmark per experiments.Names() entry with the engine's default
// parallelism (GOMAXPROCS), then the three largest multi-cell sweeps on
// one worker, for measuring the parallel engine's speedup.
func BenchmarkExperiments(b *testing.B) {
	for _, name := range experiments.Names() {
		b.Run(name, func(b *testing.B) { benchExperiment(b, name, 0) })
	}
	for _, name := range []string{"fig17", "fig20", "fig25"} {
		b.Run(name+"/serial", func(b *testing.B) { benchExperiment(b, name, 1) })
	}
}

// benchExperiment regenerates the experiment with the given sweep
// parallelism (0 = GOMAXPROCS, the engine default).
func benchExperiment(b *testing.B, name string, parallel int) {
	fn, ok := experiments.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	sc := experiments.Bench
	sc.Parallel = parallel
	var lines int
	for i := 0; i < b.N; i++ {
		r, err := fn(sc)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		lines = len(r.Lines)
		if lines == 0 {
			b.Fatalf("%s produced no output", name)
		}
	}
	b.ReportMetric(float64(lines), "series")
}

// TestExperimentNamesResolve pins the experiment registry: every listed
// name resolves and ids are unique.
func TestExperimentNamesResolve(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range experiments.Names() {
		if seen[name] {
			t.Fatalf("duplicate experiment %q", name)
		}
		seen[name] = true
		if _, ok := experiments.ByName(name); !ok {
			t.Fatalf("experiment %q does not resolve", name)
		}
	}
	if len(seen) != 22 {
		t.Fatalf("registry has %d experiments, want 22", len(seen))
	}
}

// TestTable1MatchesPaper spot-checks the encoded RTT matrix.
func TestTable1MatchesPaper(t *testing.T) {
	fn, _ := experiments.ByName("table1")
	r, err := fn(experiments.Bench)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	for _, want := range []string{"64", "243", "372", "UE", "BR"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, joined)
		}
	}
}
