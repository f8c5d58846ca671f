// Command benchmark is the commit-and-round ledger: five workloads that
// drive the system only through its public entry points, a handful of
// end-to-end metrics measured with tracing off, and a per-layer ledger
// (spans, counters and direct probes) measured in a separate traced
// pass. See README.md for how to read it.
//
//	bash benchmark/run.sh --workload fastpath --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare benchmark/out/before benchmark/out/after
//
// The last line of standard output is the run's result as one JSON
// object; the same result, with the machine fingerprint and sample
// counts, is written under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// quick shrinks every fixed-size piece of work (warm-ups, log lengths,
	// probe iterations) so the harness tests finish in seconds. Its
	// numbers are not comparable with a full run's.
	quick  bool
	outDir string
}

// scale picks the full or the quick size of a fixed piece of work.
func (c config) scale(full, quick int) int {
	if c.quick {
		return quick
	}
	return full
}

// load is one of the five workloads. setup and teardown may alternate
// several times: set-up time is the median of a few, and the workloads
// whose state grows with every operation (simcore, register, recover)
// measure in fixed-size episodes, each on a fresh setup, so that a faster
// system runs more episodes instead of building a bigger heap.
type load interface {
	// setup boots the system under test and warms it up.
	setup() error
	// measure applies the load for about d, verifies the system's outputs
	// (violations count as failed operations), and records what it saw.
	measure(d time.Duration, r *run) error
	// teardown stops everything setup started and removes its files.
	teardown()
}

// run accumulates one invocation's observations.
type run struct {
	cfg       config
	tr        *tracer // nil unless traced
	attempted int
	failures  map[string]int
	e2e       map[string]reading
	layer     map[string]reading
	windows   map[string]float64 // named window lengths, seconds
	rates     []float64          // operations per second, by slice of the window or by episode
	setups    []float64          // seconds, every setup of the run
}

func (r *run) fail(cause string, n int) {
	if n > 0 {
		r.failures[cause] += n
	}
}

func (r *run) failed() int {
	n := 0
	for _, c := range r.failures {
		n += c
	}
	return n
}

// usage is the process's resource consumption at an instant; cost is the
// difference between two instants, and adds up over timed sections.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	pauseNS uint64
	inuse   uint64
}

type cost struct {
	wall, cpu time.Duration
	mallocs   uint64
	gcs       uint32
	pauseNS   uint64
	inuseEnd  uint64
}

func takeUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		pauseNS: ms.PauseTotalNs,
		inuse:   ms.HeapInuse,
	}
}

func (u usage) since(from usage) cost {
	return cost{wall: u.at.Sub(from.at), cpu: u.cpu - from.cpu, mallocs: u.mallocs - from.mallocs,
		gcs: u.gcs - from.gcs, pauseNS: u.pauseNS - from.pauseNS, inuseEnd: u.inuse}
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.mallocs += o.mallocs
	c.gcs += o.gcs
	c.pauseNS += o.pauseNS
	c.inuseEnd = o.inuseEnd
}

// observe turns what the timed sections completed and cost into the
// end-to-end metrics. lat holds the latencies, in us, of the operations
// the workload exists to show. Rates and costs are totals over the timed
// sections, not medians of slices: rounds come in waves, so on sync a
// slice's rate swings by half around a mean that repeats within a few
// percent. The load generator runs in this process, so its CPU and
// allocations are in the per-operation costs; they are the same code on
// both sides of any comparison.
func (r *run) observe(ops int, lat []float64, timed cost) {
	r.layer["throughput_ops_s"] = reading{float64(ops) / timed.wall.Seconds(), ops}
	r.layer["op_p50_us"] = reading{median(lat), len(lat)}
	r.layer["cpu_us_per_op"] = reading{float64(timed.cpu) / 1e3 / float64(ops), ops}
	r.e2e["allocs_per_op"] = reading{float64(timed.mallocs) / float64(ops), ops}
	r.windows["timed_s"] = timed.wall.Seconds()

	r.layer["gc.cycles"] = reading{float64(timed.gcs), 1}
	r.layer["gc.pause_total_ms"] = reading{float64(timed.pauseNS) / 1e6, int(timed.gcs)}
	r.layer["heap.inuse_mb_end"] = reading{float64(timed.inuseEnd) / (1 << 20), 1}
}

// tails records what the callers saw beyond the median.
func (r *run) tails(samples []sample) {
	lats := latenciesUS(samples, all)
	r.layer["client.op_p99_us"] = reading{tailPercentile(lats, 99), len(lats)}
	if local := latenciesUS(samples, fast); len(local) > 0 {
		r.layer["client.local_commit_p50_us"] = reading{median(local), len(local)}
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// setupReps is how often a run sets up before it measures: set-up time
// is the median of these and of every fresh setup an episode starts on,
// which one cold first boot cannot move.
const setupReps = 3

// setUp replaces whatever w had set up by a fresh setup, and times it.
func (r *run) setUp(w load) error {
	w.teardown()
	runtime.GC()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return nil
}

func execute(cfg config, def workloadDef) (*run, error) {
	r := &run{cfg: cfg, failures: map[string]int{}, e2e: map[string]reading{},
		layer: map[string]reading{}, windows: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	w := def.new(cfg, r.tr)
	defer w.teardown()
	for i := 0; i < cfg.scale(setupReps, 1); i++ {
		if err := r.setUp(w); err != nil {
			return nil, err
		}
	}
	window := time.Duration(cfg.seconds) * time.Second
	r.windows["requested_s"] = window.Seconds()
	if err := w.measure(window, r); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	r.e2e["setup_s"] = reading{median(r.setups), len(r.setups)}
	r.e2e["rss_peak_mb"] = reading{peakRSSMB(), 1}

	if cfg.trace {
		if err := runProbes(cfg, r); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if len(r.tr.spans) > 0 {
			path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")
			if err := writeJSONL(path, r.tr.spans); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// fingerprint records what the numbers were measured on.
func fingerprint(cfg config) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"nproc":                 runtime.NumCPU(),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"go":                    runtime.Version(),
		"kernel":                strings.TrimSpace(string(kernel)),
		"host.timer_quantum_us": timerQuantumUS(),
		"git_commit":            gitCommit(),
		"seed":                  cfg.seed,
		"quick":                 cfg.quick,
	}
}

// timerQuantumUS measures how long the shortest timed sleep really takes
// here. A load generator cannot pace requests closer together than this.
func timerQuantumUS() float64 {
	var ds []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		time.Sleep(10 * time.Microsecond)
		ds = append(ds, float64(time.Since(t0))/1e3)
	}
	return median(ds)
}

// gitCommit reads the checked-out commit without running git; a checkout
// that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(data))
	}
	return s
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what a run leaves under -out, and what -compare reads.
type resultFile struct {
	Workload    string               `json:"workload"`
	Pass        string               `json:"pass"`
	Seconds     int                  `json:"seconds"`
	Correct     bool                 `json:"correct"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Failures    map[string]int       `json:"failures,omitempty"`
	Fingerprint map[string]any       `json:"fingerprint"`
	Windows     map[string]float64   `json:"windows_s"`
	Metrics     map[string]metricOut `json:"metrics"`
	Samples     map[string]int       `json:"samples"`
	// Timings, on an untraced pass only: loadTimings measured with tracing
	// off. The result line does not carry them (they have no bound to be
	// judged by); -compare reads them from here.
	Timings map[string]metricOut `json:"load_timings,omitempty"`
	// EndToEnd, on a traced pass only: the end-to-end numbers with the
	// tracing overhead in them, kept for the record and never compared.
	EndToEnd map[string]metricOut `json:"traced_end_to_end,omitempty"`
}

func report(cfg config, r *run) error {
	pass, defs, from := "untraced", endToEnd, r.e2e
	if cfg.trace {
		pass, defs, from = "traced", perLayer, r.layer
	}
	out := resultFile{
		Workload: cfg.workload, Pass: pass, Seconds: cfg.seconds,
		Correct: r.failed() == 0, Attempted: r.attempted, Failed: r.failed(),
		Failures: r.failures, Fingerprint: fingerprint(cfg), Windows: r.windows,
		Metrics: map[string]metricOut{}, Samples: map[string]int{},
	}
	fmt.Printf("workload %s, %s pass, seed %d, %d s measured, GOMAXPROCS %d\n",
		cfg.workload, pass, cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0))
	for _, d := range defs {
		v, ok := from[d.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.Name)
		}
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return fmt.Errorf("workload %s measured %s as %v", cfg.workload, d.Name, v.value)
		}
		out.Metrics[d.Name] = metricOut{v.value, d.Unit}
		out.Samples[d.Name] = v.n
		fmt.Printf("  %-34s %16.4f %-6s (n=%d)\n", d.Name, v.value, d.Unit, v.n)
	}
	if cfg.trace {
		out.EndToEnd = map[string]metricOut{}
		for _, d := range endToEnd {
			if v, ok := r.e2e[d.Name]; ok {
				out.EndToEnd[d.Name] = metricOut{v.value, d.Unit}
			}
		}
	} else {
		out.Timings = map[string]metricOut{}
		for _, d := range loadTimings {
			v := r.layer[d.Name]
			out.Timings[d.Name] = metricOut{v.value, d.Unit}
			out.Samples[d.Name] = v.n
			fmt.Printf("  %-34s %16.4f %-6s (n=%d) not bounded\n", d.Name, v.value, d.Unit, v.n)
		}
	}
	fmt.Printf("  operations per second by slice or episode: %.0f\n", r.rates)
	causes := make([]string, 0, len(r.failures))
	for c := range r.failures {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Printf("  FAILED %s: %d\n", c, r.failures[c])
	}
	fmt.Printf("  attempted %d, failed %d (cpu and allocations include the in-process load generator)\n",
		out.Attempted, out.Failed)

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-%s-seed%d.json", cfg.workload, pass, cfg.seed)
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, out.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func main() {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "fastpath, sync, register, recover or simcore")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from spans, counters and probes")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes for fixed work (numbers not comparable)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for result files, traces and scratch logs")
	flag.BoolVar(&compare, "compare", false, "compare two result files or directories: -compare OLD NEW")
	flag.Parse()
	if compare {
		os.Exit(runCompare(flag.Args()))
	}
	cfg.trace = trace != 0
	for _, def := range workloads {
		if def.Name != cfg.workload {
			continue
		}
		if cfg.seconds < 1 {
			fatal(fmt.Errorf("-seconds must be at least 1"))
		}
		r, err := execute(cfg, def)
		if err != nil {
			fatal(err)
		}
		if err := report(cfg, r); err != nil {
			fatal(err)
		}
		return
	}
	fatal(fmt.Errorf("unknown -workload %q", cfg.workload))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
