package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/httpapi"
	"repro/homeo/wire"
	"repro/internal/lang"
	"repro/internal/wal"
)

// txnLoad is the fastpath and sync workloads: closed-loop clients, one
// per site, each with one keep-alive connection, submitting Buy
// transactions over POST /v1/txn. Neither workload's state grows with
// the operations done, so one window on one setup measures the steady
// state.
//
// fastpath: one live cluster holding both sites (in-process fabric), a
// refill so large no treaty is ever violated, no WAL, no commit log.
//
// sync: one cluster per site in this process, joined by the HTTP site
// fabric over loopback, WAL on (no fsync), commit log on, refill 100 so
// about one commit in twelve needs a round. No message delay is
// injected: a round costs processor time plus whatever the engine itself
// charges.
type txnLoad struct {
	cfg    config
	rounds bool // the sync workload
	refill int64
	tr     *tracer

	clusters []*homeo.Cluster
	servers  []*http.Server
	urls     []string
	conns    []*http.Transport // every connection pool this load opened
	walDir   string
	closed   bool

	clients  [nSites]*txnClient
	inflight [nSites]atomic.Pointer[reqTrace]
}

// txnClient is one closed-loop client and everything it saw.
type txnClient struct {
	site    int
	cl      *client.Client
	gen     *reqGen
	samples []sample
	errs    map[string]int
	// bought[k] is the sum of n over this client's committed Buy<k>: the
	// fastpath output check replays it against the database.
	bought [nClasses]int64
}

func newTxnLoad(cfg config, tr *tracer, rounds bool) *txnLoad {
	l := &txnLoad{cfg: cfg, tr: tr, rounds: rounds, refill: refillNever}
	if rounds {
		l.refill = refillSync
		l.walDir = filepath.Join(cfg.outDir, "wal-sync")
	}
	return l
}

// pool is a fresh connection pool, remembered so teardown can close it.
func (l *txnLoad) pool(perHost int) *http.Transport {
	t := &http.Transport{MaxIdleConns: 4 * perHost, MaxIdleConnsPerHost: perHost, IdleConnTimeout: 90 * time.Second}
	l.conns = append(l.conns, t)
	return t
}

// transport wraps base with span recording on a traced pass; an untraced
// pass gets base itself, so nothing of the tracer is on its path.
func transport(tr *tracer, base http.RoundTripper, inflight *atomic.Pointer[reqTrace]) http.RoundTripper {
	if tr == nil {
		return base
	}
	return &tracedTransport{t: tr, base: base, inflight: inflight}
}

func serve(tr *tracer, c *homeo.Cluster, ln net.Listener) *http.Server {
	var h http.Handler = httpapi.NewHandler(c)
	if tr != nil {
		h = tr.middleware(h)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at teardown
	return srv
}

// newClient returns the id-th client of the run, talking to the given
// site over a pool of its own holding conns keep-alive connections.
func (l *txnLoad) newClient(id, site, conns int) *txnClient {
	return &txnClient{
		site: site,
		cl: client.New(l.urls[site%len(l.urls)], client.Options{
			MaxAttempts: 1,
			HTTPClient:  &http.Client{Transport: transport(l.tr, l.pool(conns), nil)},
		}),
		gen:  newReqGen(l.cfg.seed, id),
		errs: map[string]int{},
	}
}

func (l *txnLoad) setup() error {
	l.closed = false
	opts := homeo.Options{
		Runtime: homeo.RuntimeLive,
		Sites:   nSites,
		// 0 would select the 2 ms default service time; the ledger wants
		// the system's own cost, so the smallest explicit value.
		LocalExecTime: time.Nanosecond,
		CPUPerSite:    64,
		Seed:          l.cfg.seed,
	}
	nClusters := 1
	if l.rounds {
		nClusters = nSites
		if err := os.RemoveAll(l.walDir); err != nil {
			return err
		}
		if err := os.MkdirAll(l.walDir, 0o755); err != nil {
			return err
		}
		opts.EnableLog = true
		opts.WAL = homeo.WALOptions{Dir: l.walDir}
	}
	lns := make([]net.Listener, nClusters)
	l.urls = make([]string, nClusters)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i], l.urls[i] = ln, "http://"+ln.Addr().String()
	}
	specs := toSpecs(classSet(l.refill, l.cfg.seed))
	for i := 0; i < nClusters; i++ {
		o := opts
		if l.rounds {
			o.Sites = 0 // fixed by the peer list
			o.Fabric = &homeo.FabricOptions{Site: i, Peers: l.urls, Client: &http.Client{
				Timeout:   15 * time.Second,
				Transport: transport(l.tr, l.pool(16), &l.inflight[i]), // the fabric's own default pool size
			}}
		}
		c, err := homeo.New(o)
		if err != nil {
			return err
		}
		l.clusters = append(l.clusters, c)
		if _, err := c.RegisterBatch(specs); err != nil {
			return err
		}
		if _, err := c.Recover(); err != nil { // opens the WAL; a no-op without one
			return err
		}
		l.servers = append(l.servers, serve(l.tr, c, lns[i]))
	}
	for s := range l.clients {
		l.clients[s] = l.newClient(s, s, 1)
	}
	return l.warmUp()
}

// warmUp runs a fixed number of transactions, so that set-up time
// measures work rather than a sleep. On fastpath the measuring clients
// warm themselves up. On sync a round sleeps out the engine's modelled
// solver charge (35 ms), and the first round at each stock level also
// runs the optimizer for real before the configuration cache has it; two
// clients would need most of a minute to get past that cold start. Since
// rounds on different classes overlap, a crowd of throw-away clients
// gets there in about a second. The measured window never uses them.
func (l *txnLoad) warmUp() error {
	crowd, each := l.clients[:], l.cfg.scale(3000, 300)
	if l.rounds {
		crowd, each = nil, l.cfg.scale(250, 20)
		for i := 0; i < l.cfg.scale(32, 8); i++ {
			crowd = append(crowd, l.newClient(nSites+i, i%nSites, 16))
		}
	}
	l.drive(crowd, func(c *txnClient, _ time.Time) bool { return len(c.samples) < each })
	for _, c := range crowd {
		if len(c.errs) > 0 {
			return fmt.Errorf("warm-up: a client at site %d saw failures %v", c.site, c.errs)
		}
		c.samples = nil
	}
	return nil
}

// drive runs the closed loop: one goroutine per client, each submitting
// its next transaction when the previous one has answered, while more
// says so. It returns when every client has stopped.
func (l *txnLoad) drive(clients []*txnClient, more func(*txnClient, time.Time) bool) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *txnClient) {
			defer wg.Done()
			l.run(c, more)
		}(c)
	}
	wg.Wait()
}

func (l *txnLoad) run(c *txnClient, more func(*txnClient, time.Time) bool) {
	site := &c.site
	if l.rounds {
		site = nil // each cluster owns exactly one site
	}
	args := make([]int64, 1)
	for now := time.Now(); more(c, now); {
		k, n := c.gen.next()
		args[0] = n
		req := wire.TxnRequest{Class: classNames[k], Args: args, Site: site}
		ctx := context.Background()
		var rt *reqTrace
		if l.tr.sampling(now) {
			ctx, rt = l.tr.begin(ctx)
			l.inflight[c.site].Store(rt)
		}
		res, err := c.cl.Submit(ctx, req)
		end := time.Now()
		if rt != nil {
			l.inflight[c.site].Store(nil)
			l.tr.add(span{ID: rt.root, Req: rt.req, Name: spanSubmit,
				Start: int64(now.Sub(epoch)), End: int64(end.Sub(epoch))})
			if err == nil && rt.handler != 0 {
				l.tr.engineSpan(rt, res.LatencyMS, res.Synced)
			}
		}
		switch {
		case err != nil:
			c.errs["transport error or refusal"]++
		case res.Error != nil:
			c.errs["error reply: "+res.Error.Code]++
		case !res.Committed:
			c.errs["not committed"]++
		default:
			c.bought[k] += n
		}
		c.samples = append(c.samples, sample{at: end.Sub(epoch), lat: end.Sub(now), slow: res.Synced, traced: rt != nil})
		now = end
	}
}

func (l *txnLoad) measure(d time.Duration, r *run) error {
	for _, c := range l.clients {
		c.samples = make([]sample, 0, 1<<18)
	}
	counters := beginCounters(l.clusters...)
	if l.tr != nil {
		l.tr.on.Store(true)
	}
	before := takeUsage()
	deadline := before.at.Add(d)
	l.drive(l.clients[:], func(_ *txnClient, now time.Time) bool { return now.Before(deadline) })
	timed := takeUsage().since(before)
	if l.tr != nil {
		l.tr.on.Store(false)
	}

	var samples []sample
	for _, c := range l.clients {
		samples = append(samples, c.samples...)
		for cause, n := range c.errs {
			r.fail(cause, n)
		}
	}
	r.attempted += len(samples)
	if len(samples) == 0 {
		return fmt.Errorf("no transaction completed in %v", d)
	}
	// The operation whose latency the workload exists to show: on sync the
	// commit that paid a round, on fastpath every commit.
	op := all
	if l.rounds {
		op = slow
	}
	r.observe(len(samples), latenciesUS(samples, op), timed)
	r.tails(samples)
	r.rates = opsPerSlice(samples, before.at.Sub(epoch), timed.wall, time.Second)

	counters.report(r)
	if l.tr != nil {
		r.ledger(samples, op)
	}
	l.verify(r)
	return nil
}

// ledger folds the spans into the per-layer metrics and sets the tracing
// overhead: the latency of the traced operations against the untraced.
func (r *run) ledger(samples []sample, op func(sample) bool) {
	for name, v := range ledger(r.tr.spans) {
		r.layer[name] = v
	}
	var off, on []float64
	for _, s := range samples {
		if !op(s) {
			continue
		}
		if us := float64(s.lat) / 1e3; !s.traced {
			off = append(off, us)
		} else {
			on = append(on, us)
		}
	}
	if len(off) > 0 && len(on) > 0 {
		r.layer["trace.overhead_pct"] = reading{100 * (median(on)/median(off) - 1), len(on)}
	}
	if rounds := r.layer["homeostasis.round_engine_ms"].n; rounds > 0 {
		r.layer["fabric.msgs_per_round"] = reading{float64(r.tr.peerMsgs.Load()) / float64(rounds), rounds}
		r.layer["fabric.bytes_per_round"] = reading{float64(r.tr.peerBytes.Load()) / float64(rounds), rounds}
	}
}

// stop closes the listeners and the clusters; the clusters' state stays
// readable afterwards.
func (l *txnLoad) stop() {
	if l.closed {
		return
	}
	l.closed = true
	for _, t := range l.conns {
		t.CloseIdleConnections()
	}
	for _, srv := range l.servers {
		_ = srv.Close()
	}
	for _, c := range l.clusters {
		c.Close()
	}
}

// verify checks the outputs once the load has stopped.
func (l *txnLoad) verify(r *run) {
	l.stop()
	if !l.rounds {
		// Every class's final stock must be its refill minus everything the
		// clients saw committed, warm-up included (no purchase on this
		// workload ever refills).
		db := l.clusters[0].System().FoldedDB()
		bad := 0
		for k := 0; k < nClasses; k++ {
			var sum int64
			for _, c := range l.clients {
				sum += c.bought[k]
			}
			if got := db.Get(stockObj(k)); got != l.refill-sum {
				bad++
			}
		}
		r.fail("final stock differs from the committed purchases", bad)
		return
	}
	// Merged serial replay across both clusters (Theorem 3.8).
	logs := make([][]wire.LogEntry, len(l.clusters))
	parts := make([]wire.PartitionResponse, len(l.clusters))
	commits, rounds := 0, 0
	for i, c := range l.clusters {
		logs[i], parts[i] = c.WireLog(), c.Partition()
	}
	for _, e := range homeo.MergeLogs(logs) {
		commits++
		if e.Round != nil {
			rounds++
		}
	}
	if err := l.clusters[0].CheckMergedReplay(logs, parts); err != nil {
		fmt.Println("  merged replay:", err)
		r.fail("merged replay diverged", 1)
	}
	var total walCounts
	for s := 0; s < nSites; s++ {
		c, err := scanWAL(filepath.Join(l.walDir, fmt.Sprintf("site-%d.wal", s)))
		if err != nil {
			r.fail("unreadable WAL", 1)
			continue
		}
		total.add(c)
	}
	total.report(r, commits, rounds)
}

func (l *txnLoad) teardown() {
	l.stop()
	l.clusters, l.servers, l.conns = nil, nil, nil
	if l.walDir != "" {
		_ = os.RemoveAll(l.walDir)
	}
}

func stockObj(k int) lang.ObjID { return lang.ObjID(fmt.Sprintf("stock%d", k)) }

// walCounts is what scanning a site's log yields.
type walCounts struct {
	bytes, records            int
	commits, installs, treaty int
}

func (w *walCounts) add(o walCounts) {
	w.bytes += o.bytes
	w.records += o.records
	w.commits += o.commits
	w.installs += o.installs
	w.treaty += o.treaty
}

func scanWAL(path string) (walCounts, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return walCounts{}, err
	}
	recs, valid := wal.Scan(data)
	c := walCounts{bytes: valid, records: len(recs)}
	for _, rec := range recs {
		switch rec.Kind {
		case wal.KindCommit:
			c.commits++
		case wal.KindInstall:
			c.installs++
		case wal.KindTreaty:
			c.treaty++
		}
	}
	return c, nil
}

// report sets the log's size against the commits and rounds it recorded.
func (w walCounts) report(r *run, commits, rounds int) {
	if commits == 0 {
		return
	}
	r.layer["wal.bytes_per_commit"] = reading{float64(w.bytes) / float64(commits), commits}
	r.layer["wal.records_per_commit"] = reading{float64(w.records) / float64(commits), commits}
	if rounds > 0 {
		r.layer["wal.install_records_per_round"] = reading{float64(w.installs) / float64(rounds), rounds}
		r.layer["wal.treaty_records_per_round"] = reading{float64(w.treaty) / float64(rounds), rounds}
	}
}
