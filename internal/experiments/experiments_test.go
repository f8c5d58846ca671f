package experiments_test

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
)

// runAt regenerates one experiment at Bench scale with the given
// parallelism, checking the report is well-formed and non-empty.
func runAt(t *testing.T, name string, parallel int) *experiments.Report {
	t.Helper()
	fn, ok := experiments.ByName(name)
	if !ok {
		t.Fatalf("experiment %q does not resolve", name)
	}
	sc := experiments.Bench
	sc.Parallel = parallel
	r, err := fn(sc)
	if err != nil {
		t.Fatalf("%s (parallel=%d): %v", name, parallel, err)
	}
	if len(r.Lines) == 0 {
		t.Fatalf("%s (parallel=%d): empty report", name, parallel)
	}
	for i, line := range r.Lines {
		if line == "" {
			t.Fatalf("%s (parallel=%d): empty line %d", name, parallel, i)
		}
	}
	return r
}

// goldenReports reads the checked-in bench-scale reports, by experiment
// name. The fixture is what
//
//	homeostasis-bench -experiment all -scale bench |
//	  grep -v -E '^\((.* cells on [0-9]+ workers in |.* regenerated in )'
//
// prints — stdout without its three wall-clock line shapes, which differ
// between two runs of one binary: each report in Names() order, followed by
// the two blank lines that surrounded its timing line. Regenerate it that
// way when a change means to move a report, and say so in the change.
func goldenReports(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/bench_reports.golden")
	if err != nil {
		t.Fatal(err)
	}
	names := experiments.Names()
	sections := strings.Split(strings.TrimSuffix(string(data), "\n\n\n"), "\n\n\n")
	if len(sections) != len(names) {
		t.Fatalf("fixture holds %d reports, %d experiments are registered", len(sections), len(names))
	}
	golden := make(map[string]string, len(names))
	for i, name := range names {
		golden[name] = sections[i] + "\n"
	}
	return golden
}

// TestExperimentsDeterministicAcrossParallelism runs every registered
// experiment at Bench scale under the serial and the parallel engine and
// requires byte-identical output: each sweep cell is an isolated
// simulation whose seed depends only on the scale, so the worker count
// must never leak into results. The serial output must also be the
// checked-in report, byte for byte: the standing guarantee that a change
// to the engine moves no figure, held here instead of by hand. In -short
// mode only a representative subset runs (one micro throughput sweep, one
// TPC-C sweep, the ablation).
func TestExperimentsDeterministicAcrossParallelism(t *testing.T) {
	golden := goldenReports(t)
	names := experiments.Names()
	if testing.Short() {
		names = []string{"fig11", "fig20", "ablation"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serial := runAt(t, name, 1)
			if got, want := serial.String(), golden[name]; got != want {
				t.Errorf("report differs from testdata/bench_reports.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			parallel := runAt(t, name, 4)
			if serial.String() != parallel.String() {
				t.Errorf("output differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, parallel)
			}
			if serial.Cells != parallel.Cells {
				t.Errorf("cell counts differ: %d vs %d", serial.Cells, parallel.Cells)
			}
			if name != "table1" && parallel.Cells == 0 {
				t.Errorf("%s reports zero sweep cells", name)
			}
		})
	}
}

// TestProgressCallback checks the engine's progress surface: callbacks
// are serialized, monotonic, and end exactly at the cell count.
func TestProgressCallback(t *testing.T) {
	fn, _ := experiments.ByName("ablation")
	sc := experiments.Bench
	sc.Parallel = 4
	var calls int32
	last := 0
	total := 0
	sc.OnProgress = func(done, n int) {
		atomic.AddInt32(&calls, 1)
		if done != last+1 {
			t.Errorf("progress jumped from %d to %d", last, done)
		}
		last = done
		total = n
	}
	r, err := fn(sc)
	if err != nil {
		t.Fatal(err)
	}
	if int(calls) != r.Cells || last != r.Cells || total != r.Cells {
		t.Errorf("progress saw %d/%d of %d cells", calls, last, r.Cells)
	}
}

// TestWorkerCountMetadata pins the worker-pool sizing: explicit Parallel
// wins, and the pool never exceeds the cell count.
func TestWorkerCountMetadata(t *testing.T) {
	fn, _ := experiments.ByName("ablation") // 3 cells
	sc := experiments.Bench
	sc.Parallel = 8
	r, err := fn(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells != 3 {
		t.Fatalf("ablation ran %d cells, want 3", r.Cells)
	}
	if r.Workers != 3 {
		t.Fatalf("ablation used %d workers, want 3 (capped by cells)", r.Workers)
	}
	if experiments.TotalCells() < int64(r.Cells) {
		t.Fatalf("TotalCells() = %d, want >= %d", experiments.TotalCells(), r.Cells)
	}
}
