package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/homeo"
	"repro/homeo/httpapi"
	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/fabric/codec"
	"repro/internal/fabric/fabrictest"
	"repro/internal/homeostasis"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/symtab"
	"repro/internal/treaty"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Layer probes: direct timed calls into one layer at a time, from one
// goroutine, a fixed number of iterations, median of five batches. They
// put a floor under the span-derived lines (a round trip cannot beat
// nethttp.noop_rt_us) and give optimizations of a single layer a number
// that moves before the end-to-end one does.
//
// Each probe has a home: the workload whose layers it takes apart. A
// traced pass runs only its own workload's probes; the others report 0.
var probeHome = map[string][]func(*prober) error{
	"fastpath": {probeWire, probeNoopRoundTrip, probeLiveCluster, probeLiveRuntime},
	"simcore":  {probeSimCluster, probeSimRuntime, probeHolds},
	"sync":     {probeSolve, probeCodec, probeFabricRound, probeWALWrite},
	"recover":  {probeWALScan},
	"register": {probeAnalysis, probeRegister},
}

const probeBatches = 5

type prober struct {
	cfg config
	r   *run
}

func runProbes(cfg config, r *run) error {
	p := &prober{cfg: cfg, r: r}
	for _, probe := range probeHome[cfg.workload] {
		runtime.GC()
		if err := probe(p); err != nil {
			return err
		}
	}
	return nil
}

// time runs batch(iters) probeBatches times after a short warm-up and
// returns the median time and allocation count per operation.
func (p *prober) time(iters int, batch func(n int)) (ns, allocs float64) {
	if p.cfg.quick {
		iters = max(iters/20, 1)
	}
	batch(max(iters/10, 1))
	var nss, als []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		batch(iters)
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(dt)/float64(iters))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	return median(nss), median(als)
}

func (p *prober) ns(name string, iters int, batch func(n int)) {
	ns, _ := p.time(iters, batch)
	p.r.layer[name] = reading{ns, probeBatches}
}

func (p *prober) us(name string, iters int, batch func(n int)) {
	ns, _ := p.time(iters, batch)
	p.r.layer[name] = reading{ns / 1e3, probeBatches}
}

func (p *prober) usAllocs(name, allocName string, iters int, batch func(n int)) {
	ns, allocs := p.time(iters, batch)
	p.r.layer[name] = reading{ns / 1e3, probeBatches}
	p.r.layer[allocName] = reading{allocs, probeBatches}
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

func probeWire(p *prober) error {
	site := 1
	req := wire.TxnEnvelope{TxnRequest: wire.TxnRequest{Class: "Buy17", Args: []int64{2}, Site: &site}}
	res := wire.TxnResult{Class: "Buy17", Args: []int64{2}, Site: 1, Committed: true, LatencyMS: 0.0123}
	reqBody, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var resBody bytes.Buffer
	encodeResult := func() {
		resBody.Reset()
		enc := json.NewEncoder(&resBody) // as the server writes it: indented
		enc.SetIndent("", "  ")
		_ = enc.Encode(res)
	}
	encodeResult()
	p.ns("wire.txn_encode_ns", 20000, func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = json.Marshal(req)
		}
	})
	p.ns("wire.txn_decode_ns", 20000, func(n int) {
		for i := 0; i < n; i++ {
			var out wire.TxnEnvelope
			_ = json.Unmarshal(reqBody, &out)
		}
	})
	p.ns("wire.result_encode_ns", 20000, func(n int) {
		for i := 0; i < n; i++ {
			encodeResult()
		}
	})
	p.ns("wire.result_decode_ns", 20000, func(n int) {
		for i := 0; i < n; i++ {
			var out wire.TxnResult
			_ = json.NewDecoder(bytes.NewReader(resBody.Bytes())).Decode(&out) // as the client reads it
		}
	})
	return nil
}

// probeNoopRoundTrip is the part of a request nobody here owns: a
// keep-alive loopback GET to a handler that does nothing.
func probeNoopRoundTrip(p *prober) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	url := "http://" + ln.Addr().String() + "/"
	var rtErr error
	p.us("nethttp.noop_rt_us", 4000, func(n int) {
		for i := 0; i < n; i++ {
			resp, err := hc.Get(url)
			if err != nil {
				rtErr = err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	})
	return rtErr
}

// engineHandle exposes what a cluster keeps below its public API, for
// the probes that call the engine directly.
type engineHandle struct {
	c   *homeo.Cluster
	cls *homeo.TxnClass
	sys *homeostasis.System
	req workload.Request
}

func engineOf(c *homeo.Cluster, classes []*homeo.TxnClass) (engineHandle, error) {
	sys := c.System()
	reg, ok := sys.W.(*workload.Registry)
	if !ok {
		return engineHandle{}, fmt.Errorf("cluster workload is %T, not a registry", sys.W)
	}
	req, err := reg.Request(reg.Class(classes[0].Name()), []int64{argLo})
	return engineHandle{c: c, cls: classes[0], sys: sys, req: req}, err
}

func probeLiveCluster(p *prober) error {
	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeLive, Sites: nSites,
		LocalExecTime: time.Nanosecond, CPUPerSite: 64, Seed: p.cfg.seed})
	if err != nil {
		return err
	}
	defer c.Close()
	classes, err := c.RegisterBatch(toSpecs(classSet(refillNever, p.cfg.seed)))
	if err != nil {
		return err
	}
	e, err := engineOf(c, classes)
	if err != nil {
		return err
	}
	var probeErr error
	note := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}

	h := httpapi.NewHandler(c)
	body := []byte(`{"class":"Buy0","args":[1],"site":0}`)
	p.us("httpapi.handle_txn_us", 4000, func(n int) {
		for i := 0; i < n; i++ {
			req, _ := http.NewRequest(http.MethodPost, "/v1/txn", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				note(fmt.Errorf("handler answered %d", rec.Code))
			}
		}
	})
	sess, err := c.SessionAt(0)
	if err != nil {
		return err
	}
	ctx := context.Background()
	p.usAllocs("homeo.submit_live_us", "homeo.submit_live_allocs", 4000, func(n int) {
		for i := 0; i < n; i++ {
			_, err := sess.Submit(ctx, e.cls, argLo)
			note(err)
		}
	})
	p.ns("homeostasis.exec_live_ns", 4000, func(n int) {
		done := make(chan struct{})
		e.sys.E.Spawn(0, func(pr rt.Proc) {
			defer close(done)
			for i := 0; i < n; i++ {
				_, err := e.sys.ExecRequest(pr, 0, e.req)
				note(err)
			}
		})
		<-done
	})
	return probeErr
}

func probeLiveRuntime(p *prober) error {
	live := rtlive.New(1)
	defer live.Drain()
	done := make(chan struct{})
	p.ns("rtlive.spawn_ns", 4000, func(n int) {
		for i := 0; i < n; i++ {
			live.Spawn(i, func(rt.Proc) { done <- struct{}{} })
			<-done
		}
	})
	// Every live commit sleeps its service time, so it parks and is woken
	// by a timer at least once however short the sleep.
	p.us("rtlive.sleep_min_us", 1000, func(n int) {
		live.Spawn(0, func(pr rt.Proc) {
			for i := 0; i < n; i++ {
				pr.Sleep(1)
			}
			done <- struct{}{}
		})
		<-done
	})
	p.ns("rtlive.locked_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			live.Locked(func() {})
		}
	})
	return nil
}

func probeSimCluster(p *prober) error {
	c, classes, err := simCluster(p.cfg.seed, refillNever, "")
	if err != nil {
		return err
	}
	defer c.Close()
	e, err := engineOf(c, classes)
	if err != nil {
		return err
	}
	var probeErr error
	sess, err := c.SessionAt(0)
	if err != nil {
		return err
	}
	ctx := context.Background()
	p.usAllocs("homeo.submit_sim_us", "homeo.submit_sim_allocs", 20000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sess.Submit(ctx, e.cls, argLo); err != nil {
				probeErr = err
			}
		}
	})
	ns, allocs := p.time(50000, func(n int) {
		e.sys.E.Spawn(0, func(pr rt.Proc) {
			for i := 0; i < n; i++ {
				if _, err := e.sys.ExecRequest(pr, 0, e.req); err != nil {
					probeErr = err
				}
			}
		})
		e.sys.E.Run()
	})
	p.r.layer["homeostasis.exec_sim_ns"] = reading{ns, probeBatches}
	// Spawning the one process costs a few allocations per batch; per
	// operation the treaty-checked commit itself must stay at zero.
	p.r.layer["homeostasis.exec_sim_allocs"] = reading{float64(int(allocs + 0.01)), probeBatches}
	return probeErr
}

func probeSimRuntime(p *prober) error {
	eng := sim.NewEngine(1)
	p.ns("sim.spawn_ns", 50000, func(n int) {
		for i := 0; i < n; i++ {
			eng.Spawn(i, func(rt.Proc) {})
			eng.Run()
		}
	})
	st := store.New(eng, lang.Database{"x": 0})
	var probeErr error
	p.ns("store.txn_ns", 50000, func(n int) {
		eng.Spawn(0, func(pr rt.Proc) {
			for i := 0; i < n; i++ {
				t := st.Begin(pr)
				v, err := t.Read("x")
				if err == nil {
					err = t.Write("x", v+1)
				}
				if err != nil {
					probeErr = err
					t.Abort()
				} else {
					t.Commit()
				}
				st.Recycle(t)
			}
		})
		eng.Run()
	})
	return probeErr
}

// solveInputs derives what a renegotiation of one Buy unit works from.
func solveInputs(seed int64) (g treaty.Global, folded lang.Database, model treaty.WorkloadModel, locals []treaty.Local, err error) {
	c, classes, err := simCluster(seed, refillSync, "")
	if err != nil {
		return
	}
	defer c.Close()
	sys := c.System()
	reg := sys.W.(*workload.Registry)
	unit := reg.Class(classes[0].Name()).Unit()
	folded = lang.Database{}
	all := sys.FoldedDB()
	for _, obj := range reg.UnitObjects(unit) {
		folded[obj] = all.Get(obj)
	}
	g, err = reg.BuildGlobal(unit, folded)
	return g, folded, reg.Model(unit), sys.UnitLocals(unit), err
}

func place(obj lang.ObjID) int {
	if _, site, ok := lang.IsDeltaObj(obj); ok {
		return site
	}
	return 0
}

func probeHolds(p *prober) error {
	_, folded, _, locals, err := solveInputs(p.cfg.seed)
	if err != nil {
		return err
	}
	compiled, err := treaty.Compile(locals[0])
	if err != nil {
		return err
	}
	db := folded.Clone()
	for obj := range folded {
		db[lang.DeltaObj(obj, 0)] = -1
	}
	p.ns("treaty.holds_ns", 1000000, func(n int) {
		ok := true
		for i := 0; i < n; i++ {
			ok = compiled.Holds(db) && ok
		}
		sink = ok
	})
	return nil
}

func probeSolve(p *prober) error {
	g, folded, model, _, err := solveInputs(p.cfg.seed)
	if err != nil {
		return err
	}
	var probeErr error
	p.us("treaty.template_us", 2000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := treaty.BuildTemplate(g, nSites, place); err != nil {
				probeErr = err
			}
		}
	})
	tmpl, err := treaty.BuildTemplate(g, nSites, place)
	if err != nil {
		return err
	}
	// The engine's own defaults; a fresh, identically seeded stream per
	// solve so every iteration samples the same futures.
	opts := func() treaty.OptimizeOptions {
		return treaty.OptimizeOptions{Lookahead: 20, CostFactor: 3, Rng: rand.New(rand.NewSource(42))}
	}
	p.us("treaty.optimize_cold_us", 200, func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = treaty.Optimize(tmpl, folded, model, opts())
		}
	})
	prev, _ := treaty.Optimize(tmpl, folded, model, opts())
	p.us("treaty.optimize_warm_us", 200, func(n int) {
		for i := 0; i < n; i++ {
			o := opts()
			o.Warm = prev
			sink, _ = treaty.Optimize(tmpl, folded, model, o)
		}
	})
	return probeErr
}

func probeCodec(p *prober) error {
	msgs := []any{
		&wire.PeerCollect{From: 1, Round: 7, Clock: 99, Units: []int{3}, Objs: []string{"stock3"}},
		&wire.PeerState{Clock: 100, Values: map[string]int64{"stock3": 41, "stock3@d1": -2}},
		&wire.PeerInstallState{From: 0, Round: 7, Clock: 101, Objs: []string{"stock3"},
			Folded: map[string]int64{"stock3": 39},
			Winner: &wire.PeerWinner{Class: "Buy3", Args: []int64{2}, Site: 0, Units: []int{3}}},
		&wire.PeerInstallTreaties{From: 0, Round: 7, Clock: 102, Site: 1, Units: []wire.PeerUnitTreaty{{
			Unit: 3, Version: 4, Constraints: []wire.PeerConstraint{
				{Coeffs: map[string]int64{"stock3": -1, "stock3@d1": -1}, Const: 20, Op: "<="}}}}},
		&wire.PeerAck{Clock: 103},
	}
	outs := []any{&wire.PeerCollect{}, &wire.PeerState{}, &wire.PeerInstallState{}, &wire.PeerInstallTreaties{}, &wire.PeerAck{}}
	var buf []byte
	var probeErr error
	p.ns("codec.peer_roundtrip_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			var err error
			if buf, err = codec.AppendMessage(buf[:0], msgs[i%len(msgs)]); err == nil {
				err = codec.DecodeMessage(buf, outs[i%len(msgs)])
			}
			if err != nil {
				probeErr = err
			}
		}
	})
	return probeErr
}

// probeFabricRound is one round's six peer messages over loopback HTTP
// against a stub site: collect, install, distribute, with no engine work
// on either end.
func probeFabricRound(p *prober) error {
	_, _, _, locals, err := solveInputs(p.cfg.seed)
	if err != nil {
		return err
	}
	live := rtlive.New(1)
	defer live.Drain()
	nodes := []*fabrictest.StubNode{{Site: 0}, {Site: 1}}
	srv := httptest.NewServer(fabric.NewPeerHandler(nodes[1], nil, ""))
	defer srv.Close()
	tr := fabric.NewHTTP(live, 0, []string{"http://invalid.localhost:0", srv.URL}, nodes[0], nil)

	objs := []lang.ObjID{"stock3"}
	rid := fabric.RoundID{Site: 0, Seq: 1}
	collect := func() fabric.CollectState {
		return fabric.CollectState{Round: rid, Clock: 10, Units: []int{3}, Objs: objs}
	}
	install := fabric.InstallState{Round: rid, Clock: 12, Objs: objs, Folded: lang.Database{"stock3": 39},
		Winner: &fabric.WinnerCommit{Class: "Buy3", Args: []int64{2}, Site: 0, Units: []int{3}}}
	ms := make([]fabric.InstallTreaties, nSites)
	for k := range ms {
		ms[k] = fabric.InstallTreaties{Round: rid, Clock: 14, Site: k,
			Units: []fabric.UnitTreaty{{Unit: 3, Version: 2, Local: locals[k]}}}
	}
	var probeErr error
	done := make(chan struct{})
	p.us("fabric.http_round_us", 400, func(n int) {
		live.Spawn(0, func(pr rt.Proc) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < n; i++ {
				_, err := tr.Collect(pr, 0, collect)
				if err == nil {
					err = tr.Install(pr, 0, install)
				}
				if err == nil {
					err = tr.Distribute(pr, 0, ms)
				}
				if err != nil {
					probeErr = err
					return
				}
			}
		})
		<-done
	})
	return probeErr
}

// scratchDir makes the directory a probe keeps its files in; the probe
// removes it.
func (p *prober) scratchDir() (string, error) {
	dir := filepath.Join(p.cfg.outDir, "wal-probe")
	return dir, os.MkdirAll(dir, 0o755)
}

func sampleCommit(i int) wal.CommitRecord {
	return wal.CommitRecord{Class: "Buy3", Args: []int64{2}, Site: i % nSites, Units: []int{3},
		Clock: int64(i), Writes: map[string]int64{"stock3@d0": -int64(i % 50)}}
}

func probeWALWrite(p *prober) error {
	dir, err := p.scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(filepath.Join(dir, "probe.wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	rec := sampleCommit(7)
	var probeErr error
	// Appends only batch in memory; the group-commit timer writes them out
	// in the background, as on a serving site.
	p.ns("wal.append_commit_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			if err := l.AppendCommit(rec); err != nil {
				probeErr = err
			}
		}
	})
	p.us("wal.flush_us", 4000, func(n int) {
		for i := 0; i < n; i++ {
			err := l.AppendCommit(rec)
			if err == nil {
				err = l.Flush() // one write(2), no fsync: what a round pays before it externalizes
			}
			if err != nil {
				probeErr = err
			}
		}
	})
	return probeErr
}

func probeWALScan(p *prober) error {
	dir, err := p.scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.wal")
	l, _, err := wal.Open(path, wal.Options{})
	if err != nil {
		return err
	}
	const records = 20000
	for i := 0; i < records; i++ {
		if err := l.AppendCommit(sampleCommit(i)); err != nil {
			_ = l.Close()
			return err
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ns, _ := p.time(20, func(n int) {
		for i := 0; i < n; i++ {
			recs, _ := wal.Scan(data)
			sink = recs
		}
	})
	p.r.layer["wal.scan_ns_per_record"] = reading{ns / records, probeBatches}
	return nil
}

func probeAnalysis(p *prober) error {
	src := regClass(0, 0).L
	var probeErr error
	note := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	p.us("lang.parse_us", 20000, func(n int) {
		for i := 0; i < n; i++ {
			_, err := lang.ParseTransaction(src)
			note(err)
		}
	})
	txn, err := lang.ParseTransaction(src)
	if err != nil {
		return err
	}
	p.us("symtab.build_us", 20000, func(n int) {
		for i := 0; i < n; i++ {
			_, err := symtab.Build(txn)
			note(err)
		}
	})
	bounds := treaty.ParamBounds{"n": {argLo, argHi}}
	ac := workload.NewArtifactCache()
	next := 0
	compile := func(name string, iters int, shape func(i int) int64) {
		p.us(name, iters, func(n int) {
			for i := 0; i < n; i++ {
				next++
				_, _, err := ac.CompileL(regClass(next, shape(next)).L, nSites, bounds)
				note(err)
			}
		})
	}
	compile("workload.compile_hit_us", 4000, func(int) int64 { return 0 })
	compile("workload.compile_miss_us", 1000, func(i int) int64 { return novelShape + int64(i) })
	return probeErr
}

func probeRegister(p *prober) error {
	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Sites: nSites, Seed: p.cfg.seed})
	if err != nil {
		return err
	}
	defer c.Close()
	var probeErr error
	next := 0
	register := func(name string, iters int, shape func(i int) int64) {
		p.us(name, iters, func(n int) {
			for i := 0; i < n; i++ {
				next++
				_, err := c.Register(toSpec(regClass(next, shape(next))))
				if err != nil && probeErr == nil {
					probeErr = err
				}
			}
		})
	}
	register("homeo.register_hit_us", 2000, func(int) int64 { return 0 })
	register("homeo.register_miss_us", 1000, func(i int) int64 { return novelShape + int64(i) })
	return probeErr
}
