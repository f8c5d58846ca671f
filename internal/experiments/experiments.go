// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6 and Appendix F). Each FigNN function runs the
// corresponding parameter sweep on the simulated cluster and returns a
// Report with the same rows/series the paper plots. The cmd/homeostasis-
// bench CLI and the repository-root benchmarks are thin wrappers around
// these functions.
//
// Sweeps run on the parallel experiment engine (runner.go): every sweep
// point is an independent cell — an isolated simulated cluster — fanned
// out across Scale.Parallel worker goroutines with ordered result
// aggregation, so reports are byte-identical for any parallelism
// setting.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/homeostasis"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/sim"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

// Scale shrinks or grows experiment durations and database sizes.
// Scale 1.0 approximates the paper's setup at simulation-friendly size;
// benchmarks use smaller scales for quick regression runs.
type Scale struct {
	// Items is the microbenchmark Stock table size (paper: 10,000).
	Items int
	// Measure is the measurement window in virtual time (paper: 300s).
	Measure sim.Duration
	// Warmup precedes measurement (paper: 5s micro / 100s TPC-C).
	Warmup sim.Duration
	// TPCCStockPerWarehouse scales the TPC-C stock table (paper: 10,000
	// rows per warehouse across 10 districts).
	TPCCStockPerWarehouse int
	// Seed drives all randomness.
	Seed int64
	// Alloc, when not AllocDefault, overrides the treaty allocation
	// strategy (and enables batched renegotiation) for every cell that
	// does not pin its own strategy — the CLI's -alloc flag. The default
	// keeps the seed behavior and the golden reports.
	Alloc homeostasis.Alloc
	// Parallel bounds how many sweep cells the experiment engine
	// simulates concurrently; 0 means GOMAXPROCS. Every cell is an
	// isolated simulation with a seed derived only from the scale, so
	// reports are byte-identical for any Parallel setting.
	Parallel int
	// OnProgress, when non-nil, is called as sweep cells complete. Calls
	// are serialized by the engine but may come from worker goroutines.
	OnProgress func(done, total int)
}

// Full is the default scale used by the CLI.
var Full = Scale{
	Items:                 2000,
	Measure:               30 * sim.Second,
	Warmup:                2 * sim.Second,
	TPCCStockPerWarehouse: 200,
	Seed:                  1,
}

// Quick is a reduced scale for regression benchmarks.
var Quick = Scale{
	Items:                 400,
	Measure:               8 * sim.Second,
	Warmup:                1 * sim.Second,
	TPCCStockPerWarehouse: 50,
	Seed:                  1,
}

// Bench is the smallest scale, used by the repository's testing.B
// benchmarks so `go test -bench=.` finishes promptly while still
// exercising every experiment end to end.
var Bench = Scale{
	Items:                 100,
	Measure:               2 * sim.Second,
	Warmup:                500 * sim.Millisecond,
	TPCCStockPerWarehouse: 20,
	Seed:                  1,
}

// Report is one regenerated table/figure.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Cells is the number of independent simulation cells the sweep ran
	// and Workers the worker-pool size that ran them. Both are metadata
	// for the CLI's metrics surface; String() excludes them so rendered
	// output is identical across parallelism settings.
	Cells   int
	Workers int
	// Totals aggregates per-cell run counters across the sweep. Metadata
	// for the CLI's -v surface; String() excludes it so rendered reports
	// stay byte-identical to the goldens.
	Totals RunTotals
}

// RunTotals sums a sweep's per-cell measurement counters: the collector's
// commit/sync/drop counts, the cluster-wide 2PL store counters, and the
// merged per-negotiation communication-latency histogram (the cost of
// the site fabric's two message rounds per cleanup).
type RunTotals struct {
	Committed        int64
	Synced           int64
	AbortedConflicts int64
	Dropped          int64
	Livelocked       int64
	CoWinnerCommits  int64
	Store            homeostasis.StoreStats
	NegLatency       metrics.Histogram
}

func (t *RunTotals) String() string {
	s := fmt.Sprintf("committed=%d synced=%d conflict-aborts=%d dropped=%d livelocked=%d co-winners=%d | store: %s",
		t.Committed, t.Synced, t.AbortedConflicts, t.Dropped, t.Livelocked, t.CoWinnerCommits, t.Store)
	if n := t.NegLatency.N(); n > 0 {
		s += fmt.Sprintf(" | neg: n=%d p50=%v p99=%v", n,
			t.NegLatency.Percentile(50), t.NegLatency.Percentile(99))
	}
	return s
}

func (t *RunTotals) add(r *runResult) {
	t.Committed += r.col.Committed
	t.Synced += r.col.Synced
	t.AbortedConflicts += r.col.AbortedConflicts
	t.Dropped += r.col.Dropped
	t.Livelocked += r.col.Livelocked
	t.CoWinnerCommits += r.col.CoWinnerCommits
	t.Store.Add(r.stats)
	t.NegLatency.AddAll(&r.col.NegotiationLatency)
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	return fmt.Sprintf("=== %s: %s ===\n%s\n", r.ID, r.Title, strings.Join(r.Lines, "\n"))
}

// runCfg describes one simulated run.
type runCfg struct {
	mode    homeostasis.Mode
	nSites  int
	rtt     sim.Duration // uniform topology when > 0
	ec2     bool         // Table 1 topology
	clients int
	// optimizer knobs; zero = package defaults (L=20, f=3)
	lookahead, costFactor int
	measureName           string
	scale                 Scale
	seedBump              int64
	// alloc pins the cell's allocation strategy; AllocDefault defers to
	// the scale-wide override (Scale.Alloc), which itself defaults to the
	// mode's built-in strategy.
	alloc homeostasis.Alloc
}

// runResult keeps only the measurements of a finished cell. It must not
// reference the System: the parallel engine holds every cell's result
// until ordered aggregation, and retaining the simulated cluster (stores,
// treaties, units) would inflate the live heap across the whole sweep.
type runResult struct {
	col    *metrics.Collector
	window sim.Duration
	// stats is the cluster-wide store-counter summary, captured before
	// the System is released (see the type comment).
	stats homeostasis.StoreStats
}

// run executes one configuration over the given workload factory (the
// factory is invoked per run because workloads capture NSites).
func run(cfg runCfg, makeWorkload workloadFactory) (*runResult, error) {
	w, err := makeWorkload(cfg.nSites)
	if err != nil {
		return nil, err
	}
	var topo *cluster.Topology
	if cfg.ec2 {
		topo = cluster.EC2(cfg.nSites)
	} else {
		topo = cluster.Uniform(cfg.nSites, cfg.rtt)
	}
	alloc := cfg.alloc
	if alloc == homeostasis.AllocDefault {
		alloc = cfg.scale.Alloc
	}
	e := sim.NewEngine(cfg.scale.Seed + cfg.seedBump)
	opts := homeostasis.Options{
		Mode:           cfg.mode,
		Alloc:          alloc,
		Topo:           topo,
		ClientsPerSite: cfg.clients,
		// The paper ran all microbenchmark replicas on one 32-core host;
		// splitting the cores across replicas reproduces the client
		// plateau of Figure 17.
		CPUPerSite:  max(1, 32/cfg.nSites),
		Lookahead:   cfg.lookahead,
		CostFactor:  cfg.costFactor,
		Warmup:      cfg.scale.Warmup,
		Measure:     cfg.scale.Measure,
		Seed:        cfg.scale.Seed + cfg.seedBump,
		MeasureName: cfg.measureName,
	}
	sys, err := homeostasis.New(e, w, opts)
	if err != nil {
		return nil, err
	}
	col := sys.Run()
	return &runResult{col: col, window: cfg.scale.Measure, stats: sys.StoreStats()}, nil
}

func (r *runResult) throughputPerReplica(nSites int) float64 {
	return r.col.Throughput() / float64(nSites)
}

// latencyProfile renders the percentile series of a latency figure.
func latencyProfile(label string, h *metrics.Histogram) string {
	ps := []float64{10, 30, 50, 70, 90, 94, 96, 97, 98, 99, 100}
	parts := make([]string, 0, len(ps))
	for _, p := range ps {
		parts = append(parts, fmt.Sprintf("p%g=%v", p, h.Percentile(p)))
	}
	return fmt.Sprintf("%-14s %s", label, strings.Join(parts, " "))
}

// microFactory builds the Section 6.1 workload.
func microFactory(sc Scale, refill int64, itemsPerTxn int) workloadFactory {
	return func(nSites int) (workload.Workload, error) {
		return micro.New(micro.Config{
			Items:       sc.Items,
			Refill:      refill,
			ItemsPerTxn: itemsPerTxn,
			NSites:      nSites,
		})
	}
}

// tpccFactory builds the Section 6.2 workload.
func tpccFactory(sc Scale, h float64, mixNO, mixPay, mixDel int) workloadFactory {
	return func(nSites int) (workload.Workload, error) {
		return tpcc.New(tpcc.Config{
			Warehouses:            10,
			DistrictsPerWarehouse: 10,
			StockPerWarehouse:     sc.TPCCStockPerWarehouse,
			Customers:             1000,
			NSites:                nSites,
			H:                     h,
			MixNewOrder:           mixNO,
			MixPayment:            mixPay,
			MixDelivery:           mixDel,
			Seed:                  sc.Seed,
		})
	}
}

// All runs every experiment at the given scale, in paper order.
func All(sc Scale) ([]*Report, error) {
	type gen struct {
		name string
		fn   func(Scale) (*Report, error)
	}
	gens := []gen{
		{"table1", Table1},
		{"fig10", Fig10}, {"fig11", Fig11}, {"fig12", Fig12},
		{"fig13", Fig13}, {"fig14", Fig14}, {"fig15", Fig15},
		{"fig16", Fig16}, {"fig17", Fig17}, {"fig18", Fig18},
		{"fig19", Fig19}, {"fig20", Fig20}, {"fig21", Fig21}, {"fig22", Fig22},
		{"fig24", Fig24}, {"fig25", Fig25}, {"fig26", Fig26}, {"fig27", Fig27},
		{"fig28", Fig28}, {"fig29", Fig29},
		{"ablation", AblationOptimizer},
		{"drift", Drift},
	}
	var out []*Report
	for _, g := range gens {
		r, err := g.fn(sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", g.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ByName returns the experiment runner with the given id.
func ByName(name string) (func(Scale) (*Report, error), bool) {
	m := map[string]func(Scale) (*Report, error){
		"table1": Table1,
		"fig10":  Fig10, "fig11": Fig11, "fig12": Fig12,
		"fig13": Fig13, "fig14": Fig14, "fig15": Fig15,
		"fig16": Fig16, "fig17": Fig17, "fig18": Fig18,
		"fig19": Fig19, "fig20": Fig20, "fig21": Fig21, "fig22": Fig22,
		"fig24": Fig24, "fig25": Fig25, "fig26": Fig26, "fig27": Fig27,
		"fig28": Fig28, "fig29": Fig29,
		"ablation": AblationOptimizer,
		"drift":    Drift,
	}
	f, ok := m[name]
	return f, ok
}

// Names lists the available experiment ids in paper order.
func Names() []string {
	return []string{
		"table1",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22",
		"fig24", "fig25", "fig26", "fig27", "fig28", "fig29",
		"ablation", "drift",
	}
}

// Table1 prints the EC2 RTT matrix (an input, reproduced for
// completeness).
func Table1(Scale) (*Report, error) {
	r := &Report{ID: "Table 1", Title: "Average RTTs between Amazon datacenters (ms)"}
	for _, line := range strings.Split(strings.TrimRight(cluster.Table1String(), "\n"), "\n") {
		r.Lines = append(r.Lines, line)
	}
	return r, nil
}
