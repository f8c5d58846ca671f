package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/homeostasis"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// experiment is one report of the evaluation: its CLI name, the report's
// id and title, and what renders its rows.
type experiment struct {
	name, id, title string
	rows            func(Scale, *Report) error
}

func (e experiment) run(sc Scale) (*Report, error) {
	r := &Report{ID: e.id, Title: e.title}
	if err := e.rows(sc, r); err != nil {
		return nil, err
	}
	return r, nil
}

// The compared modes, short enough for the catalog's rows.
const (
	homeo = homeostasis.ModeHomeo
	opt   = homeostasis.ModeOpt
	twoPC = homeostasis.ModeTwoPC
)

// microBase is the Section 6.1 default: RTT 100ms, 2 replicas, 16 clients
// per replica, REFILL = 100, one item per order.
var microBase = point{
	mode: homeo, nSites: 2, rtt: 100 * sim.Millisecond,
	clients: 16, refill: 100, items: 1,
}

// tpccBase is the Section 6.2 default: two replicas at UE/UW, eight
// clients per replica (2PC runs one, see run), H = 10, the 45/45/10 New
// Order / Payment / Delivery mix, New Order measured.
var tpccBase = point{
	mode: homeo, tpcc: true, nSites: 2, clients: 8,
	h: 10, mix: [3]int{45, 45, 10}, measure: "NewOrder",
}

// tpccDist is the Appendix F.2 distributed deployment: the 49/49/2 mix,
// every transaction measured.
var tpccDist = point{
	mode: homeo, tpcc: true, nSites: 2, clients: 8,
	mix: [3]int{49, 49, 2},
}

// knob is the one parameter a figure sweeps.
type knob struct {
	name  string // head of a table's first column
	width int    // of that column
	tag   string // a latency profile is labelled <mode>-<tag><value>
	set   func(p *point, v float64)
}

var (
	rttKnob       = knob{"rtt(ms)", 8, "t", func(p *point, v float64) { p.rtt = sim.Duration(v) * sim.Millisecond }}
	replicaKnob   = knob{"replicas", 8, "r", func(p *point, v float64) { p.nSites = int(v) }}
	clientKnob    = knob{"clients", 8, "c", func(p *point, v float64) { p.clients = int(v) }}
	skewKnob      = knob{"H", 6, "h", func(p *point, v float64) { p.h = v }}
	lookaheadKnob = knob{"L", 6, "l", func(p *point, v float64) { p.lookahead = int(v) }}
)

// series is one compared line of a figure: a mode, or a REFILL value.
type series struct {
	mode   homeostasis.Mode
	refill int64 // 0 keeps the base point's
}

func modes(ms ...homeostasis.Mode) []series {
	s := make([]series, len(ms))
	for i, m := range ms {
		s[i] = series{mode: m}
	}
	return s
}

func refills(rs ...int64) []series {
	s := make([]series, len(rs))
	for i, rf := range rs {
		s[i] = series{mode: homeo, refill: rf}
	}
	return s
}

// column is one printed column of a table figure.
type column struct {
	head   string
	width  int
	series int // index into figure.series
	// est prints the paper's estimate for 2PC at eight clients per
	// replica: eight times the series' one-client value.
	est bool
}

// cols gives series i the head heads[i].
func cols(width int, heads ...string) []column {
	c := make([]column, len(heads))
	for i, h := range heads {
		c[i] = column{head: h, width: width, series: i}
	}
	return c
}

// Metrics a table figure prints.
var (
	perReplica = (*runResult).perReplica
	syncRatio  = func(r *runResult) float64 { return r.col.SyncRatio() }
	overall    = func(r *runResult) float64 { return r.col.Throughput() }
)

// figure is a single-knob sweep: every series at every value of the knob,
// each an independent cell on the base point. With no metric it prints a
// latency profile per (series, value); otherwise one row per value, the
// metric at prec decimals under cols.
type figure struct {
	base   point
	knob   knob
	values []float64
	series []series
	metric func(*runResult) float64
	prec   int
	cols   []column
}

func (f figure) at(si, vi int) point {
	p := f.base
	p.mode = f.series[si].mode
	if rf := f.series[si].refill; rf != 0 {
		p.refill = rf
	}
	f.knob.set(&p, f.values[vi])
	return p
}

func (f figure) rows(sc Scale, r *Report) error {
	if f.metric == nil {
		res, err := sweepGrid(sc, r, len(f.series), len(f.values), f.at)
		if err != nil {
			return err
		}
		for si, s := range f.series {
			for vi, v := range f.values {
				label := fmt.Sprintf("%s-%s%g", s.mode, f.knob.tag, v)
				r.Lines = append(r.Lines, latencyProfile(label, &res(si, vi).col.Latency))
			}
		}
		return nil
	}
	res, err := sweepGrid(sc, r, len(f.values), len(f.series), func(vi, si int) point { return f.at(si, vi) })
	if err != nil {
		return err
	}
	head := fmt.Sprintf("%-*s", f.knob.width, f.knob.name)
	for _, c := range f.cols {
		head += fmt.Sprintf(" %*s", c.width, c.head)
	}
	r.Lines = append(r.Lines, head)
	for vi, v := range f.values {
		line := fmt.Sprintf("%-*g", f.knob.width, v)
		for _, c := range f.cols {
			x := f.metric(res(vi, c.series))
			if c.est {
				x *= 8
			}
			line += fmt.Sprintf(" %*.*f", c.width, f.prec, x)
		}
		r.Lines = append(r.Lines, line)
	}
	return nil
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

// Series, columns and values several rows share.
var (
	microModes = modes(homeo, opt, twoPC, homeostasis.ModeLocal)
	syncModes  = modes(homeo, opt)
	microHeads = cols(8, "homeo", "opt", "2pc", "local")
	syncHeads  = cols(8, "homeo", "opt")
	allClients = []float64{1, 2, 4, 8, 16, 32, 64, 128}
	rfHeads    = cols(8, "rf10", "rf100", "rf1000")
	distSkews  = []float64{1, 10, 20, 30, 40, 50}
)

// catalog is the evaluation in paper order; ByName and Names read it.
var catalog = []experiment{
	{"table1", "Table 1", "Average RTTs between Amazon datacenters (ms)", table1},

	// Section 6.1, the microbenchmark: RTT, replicas, clients.
	{"fig10", "Figure 10", "Latency by percentile vs network RTT (Nr=2, Nc=16)", figure{
		base: microBase, knob: rttKnob, values: []float64{50, 200}, series: microModes,
	}.rows},
	{"fig11", "Figure 11", "Throughput per replica (txn/s) vs network RTT (Nr=2, Nc=16)", figure{
		base: microBase, knob: rttKnob, values: []float64{50, 100, 150, 200}, series: microModes,
		metric: perReplica, cols: microHeads,
	}.rows},
	{"fig12", "Figure 12", "Synchronization ratio (%) vs network RTT (Nr=2, Nc=16)", figure{
		base: microBase, knob: rttKnob, values: []float64{50, 100, 150, 200}, series: syncModes,
		metric: syncRatio, prec: 2, cols: syncHeads,
	}.rows},
	{"fig13", "Figure 13", "Latency by percentile vs replicas (RTT=100ms, Nc=16)", figure{
		base: microBase, knob: replicaKnob, values: []float64{2, 5}, series: microModes,
	}.rows},
	{"fig14", "Figure 14", "Throughput per replica (txn/s) vs replicas (RTT=100ms, Nc=16)", figure{
		base: microBase, knob: replicaKnob, values: []float64{2, 3, 4, 5}, series: microModes,
		metric: perReplica, cols: microHeads,
	}.rows},
	{"fig15", "Figure 15", "Synchronization ratio (%) vs replicas (RTT=100ms, Nc=16)", figure{
		base: microBase, knob: replicaKnob, values: []float64{2, 3, 4, 5}, series: syncModes,
		metric: syncRatio, prec: 2, cols: syncHeads,
	}.rows},
	{"fig16", "Figure 16", "Latency by percentile vs clients per replica (Nr=2, RTT=100ms)", figure{
		base: microBase, knob: clientKnob, values: []float64{1, 32}, series: microModes,
	}.rows},
	{"fig17", "Figure 17", "Throughput per replica (txn/s) vs clients per replica (Nr=2, RTT=100ms)", figure{
		base: microBase, knob: clientKnob, values: allClients, series: microModes,
		metric: perReplica, cols: microHeads,
	}.rows},
	{"fig18", "Figure 18", "Synchronization ratio (%) vs clients per replica (Nr=2, RTT=100ms)", figure{
		base: microBase, knob: clientKnob, values: allClients, series: syncModes,
		metric: syncRatio, prec: 2, cols: syncHeads,
	}.rows},

	// Section 6.2, TPC-C: skew H and replicas.
	{"fig19", "Figure 19", "TPC-C New Order latency by percentile vs skew H (Nr=2 UE/UW, Nc=8)", figure{
		base: tpccBase, knob: skewKnob, values: []float64{1, 50}, series: modes(opt, homeo, twoPC),
	}.rows},
	{"fig20", "Figure 20", "TPC-C New Order throughput per replica (txn/s) vs skew H (Nr=2 UE/UW, Nc=8)", figure{
		base: tpccBase, knob: skewKnob, values: []float64{5, 10, 20, 30, 40, 50}, series: modes(opt, homeo, twoPC),
		metric: perReplica, prec: 1, cols: cols(8, "opt", "homeo", "2pc-c1"),
	}.rows},
	{"fig21", "Figure 21", "TPC-C New Order latency by percentile vs replicas (EC2 topology, Nc=8, H=10)", figure{
		base: tpccBase, knob: replicaKnob, values: []float64{2, 5}, series: modes(homeo, twoPC),
	}.rows},
	{"fig22", "Figure 22", "TPC-C New Order throughput per replica (txn/s) vs replicas (EC2 topology, H=10)", figure{
		base: tpccBase, knob: replicaKnob, values: []float64{2, 3, 4, 5}, series: modes(homeo, twoPC),
		metric: perReplica, prec: 1,
		cols: append(cols(10, "homeo-c8", "2pc-c1"), column{head: "2pc-c8(est)", width: 12, series: 1, est: true}),
	}.rows},

	// Appendix F: lookahead L, items per transaction, distributed TPC-C.
	{"fig24", "Figure 24", "Violation latency breakdown vs lookahead L (RTT=100ms, Nc=16, REFILL=100)", fig24},
	{"fig25", "Figure 25", "Throughput per replica (txn/s) vs lookahead L for REFILL values (RTT=100ms, Nc=16)", figure{
		base: microBase, knob: lookaheadKnob, values: []float64{10, 40, 70, 100}, series: refills(10, 100, 1000),
		metric: perReplica, cols: rfHeads,
	}.rows},
	{"fig26", "Figure 26", "Synchronization ratio (%) vs lookahead L for REFILL values (Nr=2, RTT=100ms, Nc=16)", figure{
		base: microBase, knob: lookaheadKnob, values: []float64{10, 40, 70, 100}, series: refills(10, 100, 1000),
		metric: syncRatio, prec: 2, cols: rfHeads,
	}.rows},
	{"fig27", "Figure 27", "Latency CDF vs items per transaction (RTT=100ms, REFILL=100, Nc=20, L=20)", fig27},
	{"fig28", "Figure 28", "Distributed TPC-C overall throughput (txn/s) vs H (2 DCs, mix 49/49/2)", figure{
		base: tpccDist, knob: skewKnob, values: distSkews, series: modes(homeo, opt, twoPC),
		metric: overall,
		cols:   append(cols(10, "homeo", "opt"), column{head: "2pc(est)", width: 10, series: 2, est: true}),
	}.rows},
	{"fig29", "Figure 29", "Distributed TPC-C synchronization ratio (%) vs H (2 DCs, mix 49/49/2)", figure{
		base: tpccDist, knob: skewKnob, values: distSkews, series: syncModes,
		metric: syncRatio, prec: 2, cols: syncHeads,
	}.rows},

	{"ablation", "Ablation", "Treaty generation strategies (micro, Nr=2, RTT=100ms, Nc=16)", ablation},
	{"drift", "Drift", "Allocation strategies under drifting skew (Nr=2, batched cleanup)", drift},
}

// fig24 is the Appendix F latency breakdown of violating transactions as
// the lookahead interval L grows: local execution, solver time, and
// communication.
func fig24(sc Scale, r *Report) error {
	r.addf("%-6s %10s %10s %10s", "L", "local", "solver", "comm")
	cells := make([]point, 10)
	for i := range cells {
		cells[i] = microBase
		cells[i].lookahead = 10 * (i + 1)
	}
	res, err := sweep(sc, r, cells)
	if err != nil {
		return err
	}
	for i, c := range res {
		local, solver, comm := c.col.ViolationBreakdown.Avg()
		r.addf("%-6d %10v %10v %10v", cells[i].lookahead, local, solver, comm)
	}
	return nil
}

// fig27 is the latency CDF as the number of items per transaction grows
// (homeostasis 1..5 items, 2PC at 1 and 5).
func fig27(sc Scale, r *Report) error {
	quantiles := []float64{50, 90, 95, 98, 99, 100}
	header := "series        "
	for _, q := range quantiles {
		header += fmt.Sprintf(" %9s", fmt.Sprintf("p%g", q))
	}
	r.Lines = append(r.Lines, header)
	var cells []point
	for _, s := range []struct {
		mode  homeostasis.Mode
		items []int
	}{{homeo, []int{1, 2, 3, 4, 5}}, {twoPC, []int{1, 5}}} {
		for _, items := range s.items {
			p := microBase
			p.mode, p.clients, p.items = s.mode, 20, items
			cells = append(cells, p)
		}
	}
	res, err := sweep(sc, r, cells)
	if err != nil {
		return err
	}
	for i, c := range res {
		line := fmt.Sprintf("%s-items%d    ", cells[i].mode, cells[i].items)
		for _, q := range quantiles {
			line += fmt.Sprintf(" %9v", c.col.Latency.Percentile(q))
		}
		r.Lines = append(r.Lines, line)
	}
	return nil
}

// ablation compares treaty-generation strategies: Algorithm 1 (homeo),
// equal-split (opt), and the Theorem 4.3 default that pins every site
// (degenerating to synchronization on every write).
func ablation(sc Scale, r *Report) error {
	r.addf("%-16s %10s %10s %10s", "strategy", "tput/rep", "sync(%)", "p50")
	var cells []point
	for _, m := range []homeostasis.Mode{homeo, opt, homeostasis.ModeHomeoDefault} {
		p := microBase
		p.mode = m
		cells = append(cells, p)
	}
	res, err := sweep(sc, r, cells)
	if err != nil {
		return err
	}
	for i, c := range res {
		r.addf("%-16s %10.0f %10.2f %10v", cells[i].mode, c.perReplica(), c.col.SyncRatio(), c.col.Latency.Percentile(50))
	}
	return nil
}

// table1 prints the EC2 RTT matrix (an input, reproduced for
// completeness).
func table1(_ Scale, r *Report) error {
	r.Lines = append(r.Lines, strings.Split(strings.TrimRight(cluster.Table1String(), "\n"), "\n")...)
	return nil
}
