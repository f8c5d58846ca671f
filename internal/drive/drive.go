// Package drive is the closed-loop load and chaos harness behind
// homeostasis-serve -drive: it boots a cluster, registers class files, runs
// clients against every site over the /v1 wire protocol through homeo/client
// — the code path external users take — plays a timeline of chaos events
// (kill, join, drain), and ends with the serial-replay equivalence check of
// Theorem 3.8.
//
// One sequence (Run) serves both shapes of drive, over a list of endpoints.
// An in-process drive is one process holding S sites: S endpoints that share
// a client and pin their requests to a site each. A procs=N drive is N
// processes over the HTTP site fabric, this one as site 0 and N-1 spawned
// children: N unpinned endpoints with a client each. Beyond that list the two
// differ in two func values the runner holds: how the local cluster gets its
// classes (over POST /v1/classes, or through Cluster.Register before its
// listener may open to peers) and which replay oracle ends the drive (the
// local commit log, or every process's log merged by Lamport clock).
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

// Spawn returns the command, not yet started, for one more process: the
// caller's binary with the operator's protocol and workload flags, then args,
// which make it one site (-site/-peers or -join, -addr, -peer-token, ...).
type Spawn func(args ...string) *exec.Cmd

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

// An endpoint is where one site's clients submit: the client of the process
// serving it, the site to pin requests to if that process serves several (-1:
// only its own), the clients' halt flag, and a spawned process's child and args.
type endpoint struct {
	cl    *client.Client
	pin   int
	halt  atomic.Bool
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

// runner is one drive in progress.
type runner struct {
	opts  homeo.Options
	spec  Spec
	spawn Spawn
	out   io.Writer
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

	// register puts a class on the local cluster; replay is the oracle, and
	// logs and parts what the merged one replays, fetched while all are up.
	register func(wire.ClassRequest) (string, []string, error)
	replay   func() (commits int, err error)
	logs     [][]wire.LogEntry
	parts    []wire.PartitionResponse
	// params and bounds are the driven class's: arguments are drawn from them.
	params []string
	bounds map[string][2]int64

	stop              atomic.Bool
	wg                sync.WaitGroup
	submitted, failed atomic.Int64
}

// Run runs the drive on a cluster built from opts, reporting on out: boot the
// local cluster (and spawn a fabric's other sites), register the class files,
// Recover, open the listener, wait for every process, start the load, play
// the timeline, gather every process's statistics (and log and partition),
// tear down, replay. An error means the drive could not be carried out;
// whether it passed is Report.Verdict's say.
func Run(opts homeo.Options, spec Spec, spawn Spawn, out io.Writer) (rep Report, err error) {
	r := &runner{opts: opts, spec: spec, spawn: spawn, out: out}
	// A failed drive must not leak orphan site processes.
	defer r.teardown(syscall.SIGKILL)
	if err = r.boot(); err != nil {
		return rep, err
	}
	fmt.Fprintf(out, "driving %d clients/site at %d sites for %v (warmup %v)...\n", spec.Clients, len(r.eps), spec.Duration, r.spec.Warmup)
	for k, ep := range r.eps {
		r.startClients(k, ep)
	}
	time.Sleep(r.spec.Warmup)
	r.c.BeginMeasure()
	err = r.play()
	r.stop.Store(true)
	r.wg.Wait()
	if err == nil {
		err = r.gather(&rep)
	}
	if err != nil {
		return rep, err
	}
	// The local log is final only once nothing can touch the cluster any more.
	r.teardown(syscall.SIGTERM)
	rep.Leaked = r.c.System().E.Live()
	if spec.CheckReplay {
		rep.Replayed, rep.ReplayErr = r.replay()
	}
	return rep, nil
}

// boot brings up the local cluster with its classes registered and its log
// recovered, and then its listener: a peer must not reach a site lacking either.
func (r *runner) boot() (err error) {
	r.addrs = []string{"127.0.0.1:0"} // in-process: any free port
	if r.spec.Procs > 0 {
		if err = r.spawnFabric(r.spec.Procs); err != nil {
			return err
		}
	}
	r.opts.EnableLog = r.spec.CheckReplay
	if r.c, err = Boot(r.opts, r.out); err != nil {
		return err
	}
	if r.ln, err = net.Listen("tcp", r.addrs[0]); err != nil {
		return err
	}
	r.addrs[0] = r.ln.Addr().String()
	r.srv = &http.Server{Handler: httpapi.NewHandler(r.c)}
	serve := func() { go r.srv.Serve(r.ln) }
	if r.spec.Procs == 0 {
		// Every site is in this process: an endpoint pinned to each, classes
		// over HTTP (so the listener opens at once), the local log for an oracle.
		cl := r.client(0)
		for s := 0; s < r.c.Sites(); s++ {
			r.eps = append(r.eps, &endpoint{cl: cl, pin: s})
		}
		r.register = func(req wire.ClassRequest) (string, []string, error) {
			r.open.Do(serve)
			info, err := cl.RegisterClass(context.Background(), req)
			return info.Name, info.Params, err
		}
		r.replay = func() (int, error) { return r.c.Committed(), r.c.CheckReplayEquivalence() }
	}
	for _, path := range r.spec.Registers {
		req, err := LoadClass(path)
		if err != nil {
			return err
		}
		name, params, err := r.register(req)
		if err != nil {
			return fmt.Errorf("registering %s: %w", path, err)
		}
		if name == r.spec.Class {
			r.params, r.bounds = append([]string{}, params...), req.Bounds
		}
		fmt.Fprintf(r.out, "registered class %s(%s)\n", name, strings.Join(params, ", "))
	}
	if r.spec.Class != "" && r.params == nil {
		return fmt.Errorf("drive: class %q was not registered via -register", r.spec.Class)
	}
	// Durability: classes are registered, so WAL replay can land on top.
	if _, err = r.c.Recover(); err != nil {
		return err
	}
	r.open.Do(serve)
	for k, ep := range r.eps {
		if ep.child != nil {
			if err = r.up(k, 30*time.Second); err != nil {
				return err
			}
		}
	}
	return nil
}

// spawnFabric makes the drive n processes: ports and a fresh peer secret,
// options that make the local cluster site 0, sites 1..n-1 spawned. Every
// process registers the same class files in the same order at boot (so a
// killed child re-derives identical units before replaying its log): hence
// Cluster.Register here, and the merged oracle.
func (r *runner) spawnFabric(n int) (err error) {
	for _, ev := range r.spec.Events {
		if ev.Kind == Kill && r.opts.WAL.Dir == "" {
			// A kill without durability would just lose the site's history.
			if r.scratch, err = os.MkdirTemp("", "homeo-wal-"); err != nil {
				return err
			}
			r.opts.WAL.Dir = r.scratch
			fmt.Fprintf(r.out, "kill=%d: write-ahead logs in %s\n", ev.Site, r.scratch)
		}
	}
	// One port to spare: a joiner's is fixed up front, so its URL is stable.
	if r.addrs, err = reservePorts(n + 1); err != nil {
		return err
	}
	secret := make([]byte, 16)
	if _, err = cryptorand.Read(secret); err != nil {
		return err
	}
	r.token = hex.EncodeToString(secret)
	r.opts.Sites = n
	r.opts.Fabric = &homeo.FabricOptions{Site: 0, Token: r.token}
	for k := 0; k < n; k++ {
		r.opts.Fabric.Peers = append(r.opts.Fabric.Peers, r.url(k))
		ep := &endpoint{cl: r.client(k), pin: -1}
		r.eps = append(r.eps, ep)
		if k > 0 {
			ep.args = r.childArgs("-site", strconv.Itoa(k), "-peers", strings.Join(r.addrs[:n], ","), "-addr", r.addrs[k])
			if err = r.start(ep); err != nil {
				return err
			}
		}
	}
	r.spec.Warmup = 0
	fmt.Fprintf(r.out, "site fabric: %d processes (%s); stats windows start at process boot, so -warmup does not apply\n", n, strings.Join(r.addrs[:n], " "))
	r.register = func(req wire.ClassRequest) (string, []string, error) {
		t, err := r.c.Register(homeo.ClassSpec(req))
		if err != nil {
			return "", nil, err
		}
		return t.Name(), t.Params(), nil
	}
	r.replay = func() (int, error) {
		return len(homeo.MergeLogs(r.logs)), r.c.CheckMergedReplay(r.logs, r.parts)
	}
	return nil
}

// childArgs completes a child's role flags with what every child gets.
func (r *runner) childArgs(role ...string) []string {
	return append(role, "-peer-token", r.token, "-enable-log", "-wal-dir", r.opts.WAL.Dir)
}

// start spawns the endpoint's process in a process group of its own.
func (r *runner) start(ep *endpoint) error {
	ep.child = r.spawn(ep.args...)
	ep.child.Stdout, ep.child.Stderr = os.Stderr, os.Stderr
	ep.child.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	return ep.child.Start()
}

func (r *runner) url(k int) string { return "http://" + r.addrs[k] }

func (r *runner) client(k int) *client.Client {
	return client.New(r.url(k), client.Options{Seed: r.opts.Seed + int64(k), PeerToken: r.token})
}

// up waits for process k to answer its health probe. A joiner's listener
// opens only after its join handshake completes, so healthy implies admitted.
func (r *runner) up(k int, budget time.Duration) error {
	if err := WaitUp(r.url(k), r.token, budget); err != nil {
		return fmt.Errorf("site %d (%s) never became healthy: %w", k, r.url(k), err)
	}
	return nil
}

// startClients starts endpoint k's closed-loop clients, a stream of draws each.
func (r *runner) startClients(k int, ep *endpoint) {
	for i := 0; i < r.spec.Clients; i++ {
		id := k*r.spec.Clients + i
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			rng := rand.New(rand.NewSource(r.opts.Seed*1_000_003 + int64(id)))
			req := wire.TxnRequest{Class: r.spec.Class}
			if ep.pin >= 0 {
				req.Site = &ep.pin
			}
			for !r.stop.Load() && !ep.halt.Load() {
				// Uniform within the declared bounds, zero where unbounded.
				req.Args = make([]int64, len(r.params))
				for i, p := range r.params {
					if b, ok := r.bounds[p]; ok && b[1] >= b[0] {
						req.Args[i] = b[0] + rng.Int63n(b[1]-b[0]+1)
					}
				}
				res, err := ep.cl.Submit(context.Background(), req)
				r.submitted.Add(1)
				if err != nil || res.Error != nil {
					r.failed.Add(1)
				}
			}
		}()
	}
}

// play runs the timeline while the clients hammer away, then lets the drive
// run out. The clock stops while an event is carried out: a restart does not
// eat the rest of the drive.
func (r *runner) play() error {
	elapsed := time.Duration(0)
	for _, ev := range r.spec.Events {
		time.Sleep(ev.At - elapsed)
		elapsed = ev.At
		fmt.Fprintf(r.out, "chaos: %v site %d, %v into the drive...\n", ev.Kind, ev.Site, ev.At)
		if err := r.fire(ev); err != nil {
			return fmt.Errorf("%v site %d: %w", ev.Kind, ev.Site, err)
		}
		fmt.Fprintf(r.out, "chaos: %v site %d done\n", ev.Kind, ev.Site)
	}
	time.Sleep(r.spec.Duration - elapsed)
	return nil
}

// fire carries out one event; how to add one is in docs/DEVELOPMENT.md.
func (r *runner) fire(ev Event) error {
	switch ev.Kind {
	case Kill:
		ep := r.eps[ev.Site]
		ep.end(syscall.SIGKILL)
		if err := r.start(ep); err != nil {
			return err
		}
		if err := r.up(ev.Site, 30*time.Second); err != nil {
			return err
		}
	case Join:
		// The joiner takes its -site/-peers from its seed's topology: site 0's.
		ep := &endpoint{cl: r.client(ev.Site), pin: -1, args: r.childArgs("-join", r.url(0), "-addr", r.addrs[ev.Site])}
		r.eps = append(r.eps, ep)
		if err := r.start(ep); err != nil {
			return err
		}
		if err := r.up(ev.Site, 60*time.Second); err != nil {
			return err
		}
		r.startClients(ev.Site, ep)
	case Drain:
		ep := r.eps[ev.Site]
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if _, err := ep.cl.DrainSite(ctx, ev.Site); err != nil {
			return err
		}
		ep.halt.Store(true)
	}
	return nil
}

// gather reads every process's statistics over the wire, like any outside
// observer, and from a fabric's what the merged oracle replays.
func (r *runner) gather(rep *Report) error {
	var synced, rounds int64
	for k, ep := range r.eps {
		if ep.pin > 0 {
			continue // an in-process drive's endpoints share the first one's process
		}
		st, err := ep.cl.Stats(context.Background())
		if err != nil {
			return fmt.Errorf("stats from process %d: %w", k, err)
		}
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
		if r.spec.Procs == 0 {
			continue
		}
		lr, err := ep.cl.PeerLog(context.Background())
		if err != nil {
			return fmt.Errorf("commit log from site %d: %w", k, err)
		}
		pt, err := ep.cl.PeerDB(context.Background())
		if err != nil {
			return fmt.Errorf("partition from site %d: %w", k, err)
		}
		r.logs, r.parts = append(r.logs, lr.Entries), append(r.parts, pt)
	}
	fmt.Fprintf(r.out, "\nsubmitted:        %d (%d failed client-side)\n", r.submitted.Load(), r.failed.Load())
	fmt.Fprintf(r.out, "committed:        %d across %d processes (%.1f txn/s real)\n",
		rep.Committed, rep.Processes, float64(rep.Committed)/r.spec.Duration.Seconds())
	fmt.Fprintf(r.out, "sync ratio:       %.2f%% (%d rounds, each 2 peer message rounds)\n",
		100*float64(synced)/math.Max(float64(rep.Committed), 1), rounds)
	return nil
}

// teardown ends what the drive started, the children first (they may hold
// peer connections to this process), skipping what is already gone.
func (r *runner) teardown(sig syscall.Signal) {
	for _, ep := range r.eps {
		ep.end(sig)
	}
	if r.ln != nil {
		_ = r.srv.Close()
		_ = r.ln.Close()
	}
	if r.c != nil {
		r.c.Close()
	}
	_ = os.RemoveAll(r.scratch) // a no-op on ""
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
