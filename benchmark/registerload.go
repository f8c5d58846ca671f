package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/wire"
)

// registerLoad is the register workload: one client registers classes on
// a live cluster, one POST /v1/classes each, as fast as the server
// answers. The stream (regGen) repeats eight shapes nine times in ten and
// invents a new shape otherwise, so the analysis cache is both hit and
// missed; no transaction runs inside the timed sections.
type registerLoad struct {
	cfg    config
	tr     *tracer
	c      *homeo.Cluster
	srv    *http.Server
	conns  *http.Transport
	cl     *client.Client
	gen    *regGen
	closed bool
}

func newRegisterLoad(cfg config, tr *tracer) *registerLoad {
	return &registerLoad{cfg: cfg, tr: tr}
}

func (l *registerLoad) setup() error {
	l.closed = false
	c, err := homeo.New(homeo.Options{
		Runtime:       homeo.RuntimeLive,
		Sites:         nSites,
		LocalExecTime: time.Nanosecond,
		CPUPerSite:    64,
		Seed:          l.cfg.seed,
	})
	if err != nil {
		return err
	}
	l.c = c
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.srv = serve(l.tr, c, ln)
	l.conns = &http.Transport{MaxIdleConns: 4, MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}
	l.cl = client.New("http://"+ln.Addr().String(), client.Options{
		MaxAttempts: 1,
		HTTPClient:  &http.Client{Transport: transport(l.tr, l.conns, nil)},
	})
	l.gen = newRegGen(l.cfg.seed)
	// The warm-up walks every recurring shape, so inside the window only
	// novel shapes miss the cache.
	ctx := context.Background()
	for i := 0; i < l.cfg.scale(500, 50); i++ {
		spec, _ := l.gen.next()
		if _, err := l.cl.RegisterClass(ctx, spec); err != nil {
			return fmt.Errorf("warm-up registration %d: %w", i, err)
		}
	}
	return nil
}

// measure runs episodes until the window is used up. An episode is a
// fixed number of registrations on a fresh setup, followed by the output
// check; only the registrations are timed. Every class stays in memory,
// so fixed episodes keep the heap independent of how fast the system is.
// Every episode registers the same seeded stream.
func (l *registerLoad) measure(d time.Duration, r *run) error {
	perEpisode := l.cfg.scale(4000, 300)
	samples := make([]sample, 0, 1<<17)
	var timed cost
	if l.tr != nil {
		l.tr.on.Store(true)
	}
	deadline := time.Now().Add(d)
	for episode := 0; episode == 0 || time.Now().Before(deadline); episode++ {
		if episode > 0 {
			if err := r.setUp(l); err != nil {
				return err
			}
		}
		c := l.episode(perEpisode, &samples, r)
		timed.add(c)
		r.rates = append(r.rates, float64(perEpisode)/c.wall.Seconds())
		if episode == 0 {
			st := l.c.Stats()
			if n := st.AnalysisCacheHits + st.AnalysisCacheMisses; n > 0 {
				r.layer["workload.cache_hit_pct"] = reading{100 * float64(st.AnalysisCacheHits) / float64(n), int(n)}
			}
		}
		l.verify(r)
	}
	lats := latenciesUS(samples, all)
	r.observe(len(samples), lats, timed)
	r.layer["client.op_p99_us"] = reading{tailPercentile(lats, 99), len(lats)}
	hit, miss := latenciesUS(samples, fast), latenciesUS(samples, slow)
	r.layer["workload.register_hit_p50_us"] = reading{median(hit), len(hit)}
	r.layer["workload.register_miss_p50_us"] = reading{median(miss), len(miss)}
	if l.tr != nil {
		l.tr.on.Store(false)
		r.ledger(samples, all)
	}
	return nil
}

// episode registers n classes, one request each, as fast as the server
// answers.
func (l *registerLoad) episode(n int, samples *[]sample, r *run) cost {
	bad := 0
	l.c.BeginMeasure()
	runtime.GC()
	before := takeUsage()
	for i := 0; i < n; i++ {
		spec, novel := l.gen.next()
		now := time.Now() // generating the source is the client's think time, not latency
		ctx := context.Background()
		var rt *reqTrace
		if l.tr.sampling(now) {
			ctx, rt = l.tr.begin(ctx)
		}
		_, err := l.cl.RegisterClass(ctx, spec)
		end := time.Now()
		if rt != nil {
			l.tr.add(span{ID: rt.root, Req: rt.req, Name: spanRegister,
				Start: int64(now.Sub(epoch)), End: int64(end.Sub(epoch))})
		}
		if err != nil {
			bad++
		}
		*samples = append(*samples, sample{at: end.Sub(epoch), lat: end.Sub(now), slow: novel, traced: rt != nil})
	}
	after := takeUsage()
	r.attempted += n
	r.fail("registration refused", bad)
	return after.since(before)
}

// verify: the server lists every class the client registered, and a
// transaction on every hundredth of them commits.
func (l *registerLoad) verify(r *run) {
	ctx := context.Background()
	want := l.gen.i
	infos, err := l.cl.ListClasses(ctx)
	if err != nil || len(infos) != want {
		fmt.Printf("  list classes: %d of %d, err=%v\n", len(infos), want, err)
		r.fail("registered classes missing from the listing", max(want-len(infos), 1))
	}
	bad := 0
	for i := 0; i < want; i += 100 {
		r.attempted++
		res, err := l.cl.Submit(ctx, wire.TxnRequest{Class: fmt.Sprintf("Reg%d", i), Args: []int64{argLo}})
		if err != nil || !res.Committed {
			bad++
		}
	}
	r.fail("transaction on a registered class did not commit", bad)
}

func (l *registerLoad) stop() {
	if l.closed || l.c == nil {
		return
	}
	l.closed = true
	l.conns.CloseIdleConnections()
	_ = l.srv.Close()
	l.c.Close()
}

func (l *registerLoad) teardown() {
	l.stop()
	l.c = nil
}
