// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6 and Appendix F) on the simulated cluster. The
// reports are one ordered catalog (figures.go): a figure that varies one
// knob is a row of data — a base point, the knob's values, the compared
// series and the printed metric — that one sweep runs, and the few
// reports whose rows are not one value per series render their own rows
// over the same points. The cmd/homeostasis-bench CLI and the
// repository-root benchmarks run the catalog through ByName and Names.
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

// point is one simulated cell: the workload, the deployment and the
// protocol knobs. Every report builds its cells as points, most of them a
// figure's base point with one knob moved (figures.go).
type point struct {
	mode homeostasis.Mode
	// alloc pins the cell's allocation strategy; AllocDefault is the
	// mode's built-in one.
	alloc     homeostasis.Alloc
	nSites    int
	rtt       sim.Duration // the micro's uniform topology
	clients   int          // per replica
	lookahead int          // 0 = the optimizer's default L=20

	// The Section 6.1 microbenchmark: REFILL and items per order.
	refill int64
	items  int

	// TPC-C (Section 6.2) on the Table 1 topology instead of the micro:
	// hot-item skew H, the New Order / Payment / Delivery mix, and the
	// transaction measured ("" = all).
	tpcc    bool
	h       float64
	mix     [3]int
	measure string

	// drift runs the workload's Drift preset (drift_figs.go).
	drift bool
}

// workload builds the point's workload; every cell builds its own.
func (p point) workload(sc Scale) (workload.Workload, error) {
	if !p.tpcc {
		cfg := micro.Config{Items: sc.Items, Refill: p.refill, ItemsPerTxn: p.items, NSites: p.nSites}
		if p.drift {
			cfg = cfg.Drift()
		}
		return micro.New(cfg)
	}
	cfg := tpcc.Config{
		Warehouses:            10,
		DistrictsPerWarehouse: 10,
		StockPerWarehouse:     sc.TPCCStockPerWarehouse,
		Customers:             1000,
		NSites:                p.nSites,
		H:                     p.h,
		MixNewOrder:           p.mix[0],
		MixPayment:            p.mix[1],
		MixDelivery:           p.mix[2],
		Seed:                  sc.Seed,
	}
	if p.drift {
		// Warehouses start restocked so stock units carry allocatable
		// slack instead of pinning at the refill boundary.
		cfg.StockMin = 40
		cfg = cfg.Drift()
	}
	return tpcc.New(cfg)
}

// runResult keeps only the measurements of a finished cell. It must not
// reference the System: the parallel engine holds every cell's result
// until ordered aggregation, and retaining the simulated cluster (stores,
// treaties, units) would inflate the live heap across the whole sweep.
type runResult struct {
	col   *metrics.Collector
	sites int
	// stats is the cluster-wide store-counter summary, captured before
	// the System is released (see the type comment).
	stats homeostasis.StoreStats
}

// run simulates one point.
func run(sc Scale, p point) (*runResult, error) {
	w, err := p.workload(sc)
	if err != nil {
		return nil, err
	}
	topo := cluster.Uniform(p.nSites, p.rtt)
	clients := p.clients
	if p.tpcc {
		topo = cluster.EC2(p.nSites)
		if p.mode == homeostasis.ModeTwoPC {
			// Section 6.2: "In our 2PC implementation, we only use a
			// single client per replica: with a larger number of
			// clients, conflicts caused frequent transaction aborts".
			// The simulation reproduces that collapse (cross-site lock
			// deadlocks resolved only by the 1s timeout), so the same
			// convention applies.
			clients = 1
		}
	}
	sys, err := homeostasis.New(sim.NewEngine(sc.Seed), w, homeostasis.Options{
		Mode:           p.mode,
		Alloc:          p.alloc,
		Topo:           topo,
		ClientsPerSite: clients,
		// The paper ran all microbenchmark replicas on one 32-core host;
		// splitting the cores across replicas reproduces the client
		// plateau of Figure 17.
		CPUPerSite:  max(1, 32/p.nSites),
		Lookahead:   p.lookahead,
		Warmup:      sc.Warmup,
		Measure:     sc.Measure,
		Seed:        sc.Seed,
		MeasureName: p.measure,
	})
	if err != nil {
		return nil, err
	}
	col := sys.Run()
	return &runResult{col: col, sites: p.nSites, stats: sys.StoreStats()}, nil
}

func (r *runResult) perReplica() float64 {
	return r.col.Throughput() / float64(r.sites)
}

// ByName returns the experiment runner with the given id.
func ByName(name string) (func(Scale) (*Report, error), bool) {
	for _, e := range catalog {
		if e.name == name {
			return e.run, true
		}
	}
	return nil, false
}

// Names lists the available experiment ids in paper order.
func Names() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return names
}
