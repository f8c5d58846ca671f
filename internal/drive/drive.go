// Package drive is the closed-loop load and chaos harness behind
// homeostasis-serve -drive: it boots a cluster, registers class files, runs
// clients against every site, plays a timeline of chaos events (kill, join,
// drain), and ends with the serial-replay equivalence check of Theorem 3.8.
//
// One sequence (Run) plays every drive, over a Fleet: where the drive's sites
// run. Live is the fleet of processes and sockets on the wall clock, whose
// clients go over the /v1 wire protocol through homeo/client — the code path
// external users take. An in-process drive there is one process holding S
// sites; a procs=N drive is N processes over the HTTP site fabric, this one
// as site 0 and N-1 spawned children. homeo's tests hold the other fleet: the
// same drives as Clusters on one simulator, in virtual time and seeded.
package drive

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/httpapi"
	"repro/homeo/wire"
)

// A Fleet is where a drive's sites run, and so all that one drive of a Spec
// does differently from another: how a site boots, dies and comes back, how
// its clients submit, how an elastic event is carried out, and which clock
// the timeline waits on. A fleet value serves one drive.
type Fleet interface {
	// Boot brings up spec's sites from opts — every site in one cluster, or
	// one cluster per site of a procs=N drive — with classes (spec.Registers,
	// loaded) registered everywhere and every log recovered, ready for
	// clients. It returns the cluster the oracle runs on (the only one, or
	// site 0's) and the classes as registered.
	Boot(opts homeo.Options, spec Spec, classes []wire.ClassRequest, out io.Writer) (*homeo.Cluster, []wire.ClassInfo, error)
	// Go starts one closed-loop client of site: loop submits through submit
	// until it returns.
	Go(site int, loop func(submit func(wire.TxnRequest) error))
	// Play runs timeline on the fleet's clock and returns once it and every
	// client have returned. Sleep and Fire are called from the timeline:
	// Sleep waits on that clock, Fire carries out one chaos event.
	Play(timeline func())
	Sleep(d time.Duration)
	Fire(ev Event) error
	// Gather reads what every process observed, once the clients are done.
	Gather() ([]Process, error)
	// Close ends every site: gracefully once the drive is gathered, at once
	// when it failed.
	Close(graceful bool)
}

// Process is what one process of a drive reports at its end: its statistics,
// and on a procs=N drive the commit log and partition the merged oracle
// replays.
type Process struct {
	Stats wire.Stats
	Log   []wire.LogEntry
	Part  wire.PartitionResponse
}

// LoadClass reads a class file: a wire.ClassRequest as JSON.
func LoadClass(path string) (wire.ClassRequest, error) {
	var req wire.ClassRequest
	data, err := os.ReadFile(path)
	if err != nil {
		return req, err
	}
	if err := json.Unmarshal(data, &req); err != nil {
		return req, fmt.Errorf("%s: %w", path, err)
	}
	return req, nil
}

// Boot builds the cluster and reports on out how long that took.
func Boot(opts homeo.Options, out io.Writer) (*homeo.Cluster, error) {
	start := time.Now()
	c, err := homeo.New(opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "booted %s on %d sites in %v (mode %s, alloc %s)\n",
		c.WorkloadName(), c.Sites(), time.Since(start).Round(time.Millisecond), opts.Mode, opts.Alloc)
	return c, nil
}

// WaitUp waits until the server at base answers its health probe. The
// waiting is the client's own retry — jittered exponential backoff over
// refused connections and 503s — given the whole budget: on a loaded 1-core
// box sibling processes boot serially, so a late one is normal.
func WaitUp(base, token string, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	return client.New(base, client.Options{HTTPClient: http.DefaultClient, PeerToken: token,
		MaxAttempts: math.MaxInt32, MaxDelay: 500 * time.Millisecond}).Health(ctx)
}

// runner is one drive in progress.
type runner struct {
	fleet Fleet
	spec  Spec
	seed  int64
	out   io.Writer
	// c is the cluster the oracle runs on; halt has each site's flag that
	// stops its clients (a drained site's).
	c    *homeo.Cluster
	halt []*atomic.Bool
	// params and bounds are the driven class's: arguments are drawn from them.
	params []string
	bounds map[string][2]int64

	stop              atomic.Bool
	submitted, failed atomic.Int64
}

// Run runs the drive on a cluster built from opts over fleet, reporting on
// out: boot the sites with the class files registered and every log
// recovered, start the load, play the timeline, gather every process's
// statistics (and log and partition), tear down, replay. An error means the
// drive could not be carried out; whether it passed is Report.Verdict's say.
func Run(opts homeo.Options, spec Spec, fleet Fleet, out io.Writer) (rep Report, err error) {
	r := &runner{fleet: fleet, spec: spec, seed: opts.Seed, out: out}
	// A failed drive must not leak orphan site processes.
	defer fleet.Close(false)
	if spec.Procs > 0 {
		r.spec.Warmup = 0 // every process's stats window starts at its boot
	}
	opts.EnableLog = spec.CheckReplay
	if err = r.boot(opts); err != nil {
		return rep, err
	}
	sites := spec.Procs
	if sites == 0 {
		sites = r.c.Sites()
	}
	fmt.Fprintf(out, "driving %d clients/site at %d sites for %v (warmup %v)...\n", spec.Clients, sites, spec.Duration, r.spec.Warmup)
	for k := 0; k < sites; k++ {
		r.startClients(k)
	}
	fleet.Play(func() {
		fleet.Sleep(r.spec.Warmup)
		r.c.BeginMeasure()
		err = r.play()
		r.stop.Store(true)
	})
	var procs []Process
	if err == nil {
		procs, err = r.gather(&rep)
	}
	if err != nil {
		return rep, err
	}
	// The local log is final only once nothing can touch the cluster any more.
	fleet.Close(true)
	rep.Leaked = r.c.System().E.Live()
	if spec.CheckReplay {
		rep.Replayed, rep.ReplayErr = r.replay(procs)
	}
	return rep, nil
}

// boot loads the class files, has the fleet boot the sites with them, and
// keeps the driven class's parameters.
func (r *runner) boot(opts homeo.Options) (err error) {
	var classes []wire.ClassRequest
	for _, path := range r.spec.Registers {
		req, err := LoadClass(path)
		if err != nil {
			return err
		}
		classes = append(classes, req)
	}
	var infos []wire.ClassInfo
	if r.c, infos, err = r.fleet.Boot(opts, r.spec, classes, r.out); err != nil {
		return err
	}
	for i, info := range infos {
		if info.Name == r.spec.Class {
			r.params, r.bounds = append([]string{}, info.Params...), classes[i].Bounds
		}
		fmt.Fprintf(r.out, "registered class %s(%s)\n", info.Name, strings.Join(info.Params, ", "))
	}
	if r.spec.Class != "" && r.params == nil {
		return fmt.Errorf("drive: class %q was not registered via -register", r.spec.Class)
	}
	return nil
}

// startClients starts site's closed-loop clients, a stream of draws each.
func (r *runner) startClients(site int) {
	halt := new(atomic.Bool)
	r.halt = append(r.halt, halt)
	for i := 0; i < r.spec.Clients; i++ {
		rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(site*r.spec.Clients+i)))
		r.fleet.Go(site, func(submit func(wire.TxnRequest) error) {
			req := wire.TxnRequest{Class: r.spec.Class}
			for !r.stop.Load() && !halt.Load() {
				// Uniform within the declared bounds, zero where unbounded.
				req.Args = make([]int64, len(r.params))
				for i, p := range r.params {
					if b, ok := r.bounds[p]; ok && b[1] >= b[0] {
						req.Args[i] = b[0] + rng.Int63n(b[1]-b[0]+1)
					}
				}
				r.submitted.Add(1)
				if submit(req) != nil {
					r.failed.Add(1)
				}
			}
		})
	}
}

// play runs the timeline while the clients hammer away, then lets the drive
// run out. The clock stops while an event is carried out: a restart does not
// eat the rest of the drive. How to add an event is in docs/DEVELOPMENT.md.
func (r *runner) play() error {
	elapsed := time.Duration(0)
	for _, ev := range r.spec.Events {
		r.fleet.Sleep(ev.At - elapsed)
		elapsed = ev.At
		fmt.Fprintf(r.out, "chaos: %v site %d, %v into the drive...\n", ev.Kind, ev.Site, ev.At)
		if err := r.fleet.Fire(ev); err != nil {
			return fmt.Errorf("%v site %d: %w", ev.Kind, ev.Site, err)
		}
		switch ev.Kind {
		case Join:
			r.startClients(ev.Site)
		case Drain:
			r.halt[ev.Site].Store(true)
		}
		fmt.Fprintf(r.out, "chaos: %v site %d done\n", ev.Kind, ev.Site)
	}
	r.fleet.Sleep(r.spec.Duration - elapsed)
	return nil
}

// gather prints what every process observed, and the totals.
func (r *runner) gather(rep *Report) ([]Process, error) {
	procs, err := r.fleet.Gather()
	if err != nil {
		return nil, err
	}
	var synced, rounds int64
	for k, p := range procs {
		st := p.Stats
		rep.Processes++
		rep.Committed += st.Committed
		synced += st.Synced
		rounds += st.Negotiations
		fmt.Fprintf(r.out, "process %d: committed=%d synced=%d rounds=%d conflict-aborts=%d dropped=%d latency p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms neg-p50=%.3fms neg-p99=%.3fms fabric-errors=%d recovered-wal-records=%d store %+v\n",
			k, st.Committed, st.Synced, st.Negotiations, st.ConflictAborts, st.Dropped, st.LatencyP50MS, st.LatencyP90MS, st.LatencyP99MS, st.LatencyMaxMS,
			st.NegLatencyP50MS, st.NegLatencyP99MS, st.FabricErrors, st.RecoveredWALRecords, st.StoreCluster)
		if r.spec.Verbose {
			all, _ := json.Marshal(st)
			fmt.Fprintf(r.out, "process %d: %s\n", k, all)
		}
	}
	fmt.Fprintf(r.out, "\nsubmitted:        %d (%d failed client-side)\n", r.submitted.Load(), r.failed.Load())
	fmt.Fprintf(r.out, "committed:        %d across %d processes (%.1f txn/s real)\n",
		rep.Committed, rep.Processes, float64(rep.Committed)/r.spec.Duration.Seconds())
	fmt.Fprintf(r.out, "sync ratio:       %.2f%% (%d rounds, each 2 peer message rounds)\n",
		100*float64(synced)/math.Max(float64(rep.Committed), 1), rounds)
	return procs, nil
}

// replay runs the oracle: the local commit log of an in-process drive, or
// every process's log merged by Lamport clock.
func (r *runner) replay(procs []Process) (int, error) {
	if r.spec.Procs == 0 {
		return r.c.Committed(), r.c.CheckReplayEquivalence()
	}
	var logs [][]wire.LogEntry
	var parts []wire.PartitionResponse
	for _, p := range procs {
		logs, parts = append(logs, p.Log), append(parts, p.Part)
	}
	return len(homeo.MergeLogs(logs)), r.c.CheckMergedReplay(logs, parts)
}

// Spawn returns the command, not yet started, for one more process: the
// caller's binary with the operator's protocol and workload flags, then args,
// which make it one site (-site/-peers or -join, -addr, -peer-token, ...).
type Spawn func(args ...string) *exec.Cmd

// Live is the fleet of processes and sockets, on the wall clock. A site dies
// by SIGKILL to its process group and comes back as a restarted process that
// recovers its log; a joiner is a process started with -join; a drain is
// POST /v1/topology/drain. Clients go through homeo/client, one endpoint per
// site.
type Live struct {
	// Spawn starts a procs=N drive's other processes; an in-process drive
	// needs none.
	Spawn Spawn

	opts homeo.Options
	out  io.Writer
	// The local cluster — every site, or site 0 of a fabric — and its server.
	c    *homeo.Cluster
	srv  *http.Server
	ln   net.Listener
	open sync.Once

	// addrs has a listen address per process, a later joiner's included;
	// token is a fabric's peer secret, scratch the log directory lent to a kill.
	addrs          []string
	token, scratch string
	eps            []*endpoint
	wg             sync.WaitGroup
}

// An endpoint is where one site's clients submit: the client of the process
// serving it, the site to pin requests to if that process serves several (-1:
// only its own), and a spawned process's child and args.
type endpoint struct {
	cl    *client.Client
	pin   int
	child *exec.Cmd
	args  []string
}

// end signals the process group of a child still running and reaps it.
func (ep *endpoint) end(sig syscall.Signal) {
	if ep.child != nil && ep.child.Process != nil {
		_ = syscall.Kill(-ep.child.Process.Pid, sig)
		_ = ep.child.Wait()
		ep.child = nil
	}
}

// Boot brings up the local cluster (and spawns a fabric's other sites) with
// its classes registered and its log recovered, and then its listener: a peer
// must not reach a site lacking either. It returns once every process is up.
func (l *Live) Boot(opts homeo.Options, spec Spec, classes []wire.ClassRequest, out io.Writer) (*homeo.Cluster, []wire.ClassInfo, error) {
	l.opts, l.out = opts, out
	l.addrs = []string{"127.0.0.1:0"} // in-process: any free port
	if spec.Procs > 0 {
		if err := l.spawnFabric(spec); err != nil {
			return nil, nil, err
		}
	}
	var err error
	if l.c, err = Boot(l.opts, out); err != nil {
		return nil, nil, err
	}
	if l.ln, err = net.Listen("tcp", l.addrs[0]); err != nil {
		return nil, nil, err
	}
	l.addrs[0] = l.ln.Addr().String()
	l.srv = &http.Server{Handler: httpapi.NewHandler(l.c)}
	if spec.Procs == 0 {
		// Every site is in this process: an endpoint pinned to each.
		cl := l.client(0)
		for s := 0; s < l.c.Sites(); s++ {
			l.eps = append(l.eps, &endpoint{cl: cl, pin: s})
		}
	}
	infos := make([]wire.ClassInfo, len(classes))
	for i, req := range classes {
		if infos[i], err = l.register(req); err != nil {
			return nil, nil, fmt.Errorf("registering %s: %w", spec.Registers[i], err)
		}
	}
	// Durability: classes are registered, so WAL replay can land on top.
	if _, err = l.c.Recover(); err != nil {
		return nil, nil, err
	}
	l.open.Do(l.serve)
	for k, ep := range l.eps {
		if ep.child != nil {
			if err = l.up(k, 30*time.Second); err != nil {
				return nil, nil, err
			}
		}
	}
	return l.c, infos, nil
}

func (l *Live) serve() { go l.srv.Serve(l.ln) }

// register puts a class on the local cluster. An in-process drive sends it
// over POST /v1/classes, the online path, so its listener opens at once. A
// fabric's site 0 goes through Cluster.Register, as every child registers
// the same class files in the same order at boot (so a killed child
// re-derives identical units before replaying its log).
func (l *Live) register(req wire.ClassRequest) (wire.ClassInfo, error) {
	if l.opts.Fabric == nil {
		l.open.Do(l.serve)
		return l.eps[0].cl.RegisterClass(context.Background(), req)
	}
	t, err := l.c.Register(homeo.ClassSpec(req))
	if err != nil {
		return wire.ClassInfo{}, err
	}
	return wire.ClassInfo{Name: t.Name(), Params: t.Params()}, nil
}

// spawnFabric makes the drive spec.Procs processes: ports and a fresh peer
// secret, options that make the local cluster site 0, the other sites
// spawned.
func (l *Live) spawnFabric(spec Spec) (err error) {
	n := spec.Procs
	for _, ev := range spec.Events {
		if ev.Kind == Kill && l.opts.WAL.Dir == "" {
			// A kill without durability would just lose the site's history.
			if l.scratch, err = os.MkdirTemp("", "homeo-wal-"); err != nil {
				return err
			}
			l.opts.WAL.Dir = l.scratch
			fmt.Fprintf(l.out, "kill=%d: write-ahead logs in %s\n", ev.Site, l.scratch)
		}
	}
	// One port to spare: a joiner's is fixed up front, so its URL is stable.
	if l.addrs, err = reservePorts(n + 1); err != nil {
		return err
	}
	secret := make([]byte, 16)
	if _, err = cryptorand.Read(secret); err != nil {
		return err
	}
	l.token = hex.EncodeToString(secret)
	l.opts.Sites = n
	l.opts.Fabric = &homeo.FabricOptions{Site: 0, Token: l.token}
	for k := 0; k < n; k++ {
		l.opts.Fabric.Peers = append(l.opts.Fabric.Peers, l.url(k))
		ep := &endpoint{cl: l.client(k), pin: -1}
		l.eps = append(l.eps, ep)
		if k > 0 {
			ep.args = l.childArgs("-site", strconv.Itoa(k), "-peers", strings.Join(l.addrs[:n], ","), "-addr", l.addrs[k])
			if err = l.start(ep); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(l.out, "site fabric: %d processes (%s); stats windows start at process boot, so -warmup does not apply\n", n, strings.Join(l.addrs[:n], " "))
	return nil
}

// childArgs completes a child's role flags with what every child gets.
func (l *Live) childArgs(role ...string) []string {
	return append(role, "-peer-token", l.token, "-enable-log", "-wal-dir", l.opts.WAL.Dir)
}

// start spawns the endpoint's process in a process group of its own.
func (l *Live) start(ep *endpoint) error {
	ep.child = l.Spawn(ep.args...)
	ep.child.Stdout, ep.child.Stderr = os.Stderr, os.Stderr
	ep.child.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	return ep.child.Start()
}

func (l *Live) url(k int) string { return "http://" + l.addrs[k] }

func (l *Live) client(k int) *client.Client {
	return client.New(l.url(k), client.Options{Seed: l.opts.Seed + int64(k), PeerToken: l.token})
}

// up waits for process k to answer its health probe. A joiner's listener
// opens only after its join handshake completes, so healthy implies admitted.
func (l *Live) up(k int, budget time.Duration) error {
	if err := WaitUp(l.url(k), l.token, budget); err != nil {
		return fmt.Errorf("site %d (%s) never became healthy: %w", k, l.url(k), err)
	}
	return nil
}

// Go starts a client goroutine that submits over HTTP to site's endpoint.
func (l *Live) Go(site int, loop func(submit func(wire.TxnRequest) error)) {
	ep := l.eps[site]
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		loop(func(req wire.TxnRequest) error {
			if ep.pin >= 0 {
				req.Site = &ep.pin
			}
			res, err := ep.cl.Submit(context.Background(), req)
			if err == nil && res.Error != nil {
				err = fmt.Errorf("%s: %s", res.Error.Code, res.Error.Message)
			}
			return err
		})
	}()
}

// Play runs the timeline on the calling goroutine, then waits for the clients.
func (l *Live) Play(timeline func()) {
	timeline()
	l.wg.Wait()
}

// Sleep sleeps d of wall-clock time.
func (l *Live) Sleep(d time.Duration) { time.Sleep(d) }

// Fire carries out one event; how to add one is in docs/DEVELOPMENT.md.
func (l *Live) Fire(ev Event) error {
	switch ev.Kind {
	case Kill:
		ep := l.eps[ev.Site]
		ep.end(syscall.SIGKILL)
		if err := l.start(ep); err != nil {
			return err
		}
		return l.up(ev.Site, 30*time.Second)
	case Join:
		// The joiner takes its -site/-peers from its seed's topology: site 0's.
		ep := &endpoint{cl: l.client(ev.Site), pin: -1, args: l.childArgs("-join", l.url(0), "-addr", l.addrs[ev.Site])}
		l.eps = append(l.eps, ep)
		if err := l.start(ep); err != nil {
			return err
		}
		return l.up(ev.Site, 60*time.Second)
	case Drain:
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_, err := l.eps[ev.Site].cl.DrainSite(ctx, ev.Site)
		return err
	}
	return nil
}

// Gather reads every process's statistics over the wire, like any outside
// observer, and from a fabric's what the merged oracle replays.
func (l *Live) Gather() ([]Process, error) {
	var procs []Process
	for k, ep := range l.eps {
		if ep.pin > 0 {
			continue // an in-process drive's endpoints share the first one's process
		}
		var p Process
		var err error
		if p.Stats, err = ep.cl.Stats(context.Background()); err != nil {
			return nil, fmt.Errorf("stats from process %d: %w", k, err)
		}
		if l.opts.Fabric != nil {
			lr, err := ep.cl.PeerLog(context.Background())
			if err != nil {
				return nil, fmt.Errorf("commit log from site %d: %w", k, err)
			}
			if p.Part, err = ep.cl.PeerDB(context.Background()); err != nil {
				return nil, fmt.Errorf("partition from site %d: %w", k, err)
			}
			p.Log = lr.Entries
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// Close ends what the drive started, the children first (they may hold peer
// connections to this process), skipping what is already gone: children get
// SIGTERM when graceful, else SIGKILL.
func (l *Live) Close(graceful bool) {
	sig := syscall.SIGKILL
	if graceful {
		sig = syscall.SIGTERM
	}
	for _, ep := range l.eps {
		ep.end(sig)
	}
	if l.ln != nil {
		_ = l.srv.Close()
		_ = l.ln.Close()
	}
	if l.c != nil {
		l.c.Close()
	}
	_ = os.RemoveAll(l.scratch) // a no-op on ""
}

// reservePorts picks n distinct free loopback ports: bound together, released.
func reservePorts(n int) ([]string, error) {
	var addrs []string
	for len(addrs) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("could not reserve %d loopback ports: %w", n, err)
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// Report is what a completed drive observed.
type Report struct {
	// Processes is the OS processes that served the drive and Committed
	// their commits in the measured window.
	Processes int
	Committed int64
	// Replayed is the logged commits the oracle ran over, zero when not asked.
	Replayed  int
	ReplayErr error
	// Leaked is the runtime processes alive in the cluster after teardown.
	Leaked int
}

// Verdict judges the drive on out: the exit code is 1 when nothing committed,
// the replay check failed, or teardown leaked a process.
func (rep Report) Verdict(out io.Writer) (exit int) {
	if rep.Committed == 0 {
		fmt.Fprintln(out, "FAIL: no transactions committed in the measurement window")
		exit = 1
	}
	if rep.ReplayErr != nil {
		fmt.Fprintln(out, "FAIL: replay equivalence:", rep.ReplayErr)
		exit = 1
	} else if rep.Replayed > 0 {
		fmt.Fprintf(out, "replay check:     OK (%d commits from %d processes observationally equivalent under serial replay)\n",
			rep.Replayed, rep.Processes)
	}
	if rep.Leaked != 0 {
		fmt.Fprintf(out, "FAIL: %d processes still alive after drain\n", rep.Leaked)
		exit = 1
	}
	return exit
}
