// Command homeostasis-serve boots a live multi-site homeostasis cluster
// and serves the versioned /v1 wire protocol. It is a thin shell over the
// public embeddable API: repro/homeo builds and runs the cluster,
// repro/homeo/httpapi serves the protocol, repro/homeo/client drives it.
//
// Serving mode (default) exposes HTTP/JSON:
//
//	homeostasis-serve -workload tpcc -sites 3 -addr :8080
//	curl -s -X POST localhost:8080/v1/classes -d '{"l":"transaction Deposit(n) { v := read(acct); write(acct = v + n) }"}'
//	curl -s -X POST localhost:8080/v1/txn -d '{"class":"Deposit","args":[5]}'
//	curl -s -X POST localhost:8080/v1/txn -d '{"site":0}'        # base workload mix
//	curl -s localhost:8080/v1/stats
//	curl -N localhost:8080/v1/stats?stream=1                      # SSE stream
//
// POST /v1/classes registers a transaction class from L or SQL source:
// the server parses and analyzes it and generates treaties online, so
// transactions never seen at compile time serve coordination-free where
// the analysis allows. POST /v1/txn invokes a registered class (or draws
// from the base workload's mix), singly or in batch, with 429
// backpressure on queue overflow and structured error codes
// distinguishing abort, timeout, and livelock. On SIGINT/SIGTERM the
// server stops admitting (503), drains in-flight work, prints final
// stats, and exits 0.
//
// Drive mode runs a closed-loop load driver over the same wire protocol:
//
//	homeostasis-serve -workload tpcc -drive clients=8,duration=5s
//	homeostasis-serve -workload none -register class.json -drive clients=4,duration=5s,class=Deposit
//
// The driver boots the server on a loopback listener, registers any
// -register class files over HTTP, and runs the given number of
// closed-loop clients per site through homeo/client — the same code path
// external users take. It prints real throughput and latency through the
// same collector the experiments use, verifies the commit log is
// observationally equivalent under serial replay (Theorem 3.8), and exits
// nonzero on zero commits or a failed check.
//
// Multi-process mode runs one site per OS process over the HTTP site
// fabric (internal/fabric): transactions commit locally with no peer
// traffic while treaties hold, and a violation pays exactly two peer
// message rounds (/v1/peer/*), coordinated by the violating site:
//
//	homeostasis-serve -workload none -site 0 -peers h0:8080,h1:8080,h2:8080 -enable-log
//	homeostasis-serve -workload none -site 1 -peers h0:8080,h1:8080,h2:8080 -enable-log  # on h1
//	homeostasis-serve -workload none -site 2 -peers h0:8080,h1:8080,h2:8080 -enable-log  # on h2
//
// Every process must get the same workload/protocol flags and seed, and
// classes must be registered at every site in the same order. The drive
// mode automates the whole thing on one machine: -drive ...,procs=N
// spawns N-1 peer processes, drives all N, then verifies the merged
// commit log (ordered by Lamport clock across processes) is
// observationally equivalent under serial replay.
//
// Elastic topology: a running multi-process cluster accepts new sites
// online. -join seeds a fresh process from any serving member — it
// fetches the member's topology, boots one site wider, streams the
// quiesced partition cut through the two-phase join handshake, and
// serves as a full member (treaty configurations include it from the
// next synchronization round on):
//
//	homeostasis-serve -workload none -register class.json -join h0:8080 -addr h3:8080 -enable-log
//
// POST /v1/topology/drain retires a site (its deltas are absorbed into
// the replicated base, then the slot is fenced), and POST
// /v1/topology/migrate re-homes one treaty unit's slack. The drive
// mode's join=1[@when] and drain=site[@when] knobs exercise both
// mid-drive and replay-check the merged commit log across the epoch
// change.
package main

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"sort"
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
	"repro/internal/micro"
	"repro/internal/tpcc"
)

// classFiles collects repeatable -register flags.
type classFiles []string

func (c *classFiles) String() string { return strings.Join(*c, ",") }
func (c *classFiles) Set(s string) error {
	*c = append(*c, s)
	return nil
}

// serviceTime maps the -exec-time flag to homeo.Options.LocalExecTime. The
// engine reads a zero service time as "unset" and substitutes its 2 ms
// default, so an explicit -exec-time 0 is passed as the smallest service
// time instead of silently becoming 2 ms.
func serviceTime(flagValue time.Duration) time.Duration {
	if flagValue == 0 {
		return time.Nanosecond
	}
	return flagValue
}

func main() {
	var registers classFiles
	var (
		workloadName = flag.String("workload", "tpcc", "base workload: micro, tpcc, or none (serve only registered classes)")
		site         = flag.Int("site", -1, "multi-process mode: the one site this process serves (requires -peers)")
		peersFlag    = flag.String("peers", "", "multi-process mode: comma-separated base URLs of every site in site order (peers[site] is this process)")
		peerToken    = flag.String("peer-token", "", "multi-process mode: shared secret required on /v1/peer/* mutations (set it whenever peers cross a real network)")
		enableLog    = flag.Bool("enable-log", false, "record the commit log (GET /v1/peer/log) for replay checks; drive mode forces it")
		modeName     = flag.String("mode", "homeo", "protocol: homeo, opt, homeo-default, 2pc, or local")
		allocName    = flag.String("alloc", "default", "treaty allocation: default (mode's builtin), equal, model, or adaptive (non-default also enables batched renegotiation)")
		drift        = flag.Bool("drift", false, "enable the workload's drift scenario (micro: hot-site rotation; tpcc: skewed warehouse)")
		sites        = flag.Int("sites", 2, "number of replica sites")
		rtt          = flag.Duration("rtt", 50*time.Millisecond, "uniform inter-site round-trip time (really slept)")
		ec2          = flag.Bool("ec2", false, "use the paper's Table 1 EC2 inter-region RTTs instead of -rtt")
		cpu          = flag.Int("cpu", 4, "CPU slots per site (a real concurrency limit)")
		execTime     = flag.Duration("exec-time", 2*time.Millisecond, "local execution service time per transaction (0 = none: runs the engine at its smallest, 1ns)")
		lockTimeout  = flag.Duration("lock-timeout", time.Second, "2PL lock-wait timeout")
		items        = flag.Int("items", 200, "micro: stock items")
		refill       = flag.Int64("refill", 100, "micro: REFILL constant")
		warehouses   = flag.Int("warehouses", 2, "tpcc: warehouses")
		stock        = flag.Int("stock", 30, "tpcc: stock rows per warehouse")
		seed         = flag.Int64("seed", 1, "seed for treaty optimization and request draws")
		maxInflight  = flag.Int("max-inflight", 1024, "submissions in flight before 429 backpressure")
		walDir       = flag.String("wal-dir", "", "durability: directory for per-site write-ahead logs (site-<k>.wal); boot replays it and rejoins the fabric")
		walSync      = flag.Bool("wal-sync", false, "durability: fsync every WAL batch before acknowledging (survives power loss, slower)")
		addr         = flag.String("addr", ":8080", "serving mode: HTTP listen address (drive mode: loopback default)")
		joinSeed     = flag.String("join", "", "elastic join: base URL of any serving member of a running multi-process cluster; this process boots one site wider, is admitted through the two-phase join handshake, and serves (requires -workload none plus the cluster's -register files and protocol flags)")
		drive        = flag.String("drive", "", "drive mode: clients=N,duration=5s[,class=Name][,procs=N][,kill=site@t][,join=1@t][,drain=site@t] (closed-loop load over the wire protocol, then exit)")
		warmup       = flag.Duration("warmup", 250*time.Millisecond, "drive mode: warm-up before measuring")
		checkReplay  = flag.Bool("check-replay", true, "drive mode: verify serial-replay equivalence of the commit log")
		verbose      = flag.Bool("v", false, "drive mode: also print per-site store counters")
	)
	flag.Var(&registers, "register", "register a transaction class from a JSON file (wire ClassRequest; repeatable; drive mode registers over HTTP)")
	flag.Parse()

	mode, err := homeo.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	alloc, err := homeo.ParseAlloc(*allocName)
	if err != nil {
		fatal(err)
	}
	base, err := buildWorkload(*workloadName, *sites, *items, *refill, *warehouses, *stock, *seed, *drift)
	if err != nil {
		fatal(err)
	}

	opts := homeo.Options{
		Runtime:       homeo.RuntimeLive,
		Mode:          mode,
		Alloc:         alloc,
		Sites:         *sites,
		RTT:           *rtt,
		Workload:      base,
		CPUPerSite:    *cpu,
		LocalExecTime: serviceTime(*execTime),
		LockTimeout:   *lockTimeout,
		Seed:          *seed,
		MaxInflight:   *maxInflight,
		EnableLog:     *enableLog,
		WAL:           homeo.WALOptions{Dir: *walDir, Sync: *walSync},
	}
	if *ec2 {
		opts.Topology = homeo.EC2(*sites)
	}

	listenAddr := *addr
	if *site >= 0 {
		// Multi-process mode: this process owns exactly one site; the
		// cleanup phase's rounds travel over the HTTP peer fabric.
		peers := splitPeers(*peersFlag)
		if len(peers) < 2 {
			fatal(fmt.Errorf("-site requires -peers naming at least two sites"))
		}
		if *site >= len(peers) {
			fatal(fmt.Errorf("-site %d out of range for %d peers", *site, len(peers)))
		}
		// The peer list fixes the cluster width; -sites is ignored here.
		opts.Sites = len(peers)
		if opts.Workload != nil {
			// Rebuild the workload at the peer-derived width so every
			// process draws an identical instance.
			if opts.Workload, err = buildWorkload(*workloadName, opts.Sites, *items, *refill, *warehouses, *stock, *seed, *drift); err != nil {
				fatal(err)
			}
		}
		if *ec2 {
			opts.Topology = homeo.EC2(opts.Sites)
		}
		opts.Fabric = &homeo.FabricOptions{Site: *site, Peers: peers, Token: *peerToken}
		if listenAddr == ":8080" {
			// Default the listen address to this site's peer URL.
			if u, perr := url.Parse(peers[*site]); perr == nil && u.Host != "" {
				listenAddr = u.Host
			}
		}
	}

	if *joinSeed != "" {
		// Elastic join: derive the peer list and our own site index from
		// the seed member's topology; -site/-peers/-sites don't apply.
		if *site >= 0 || *peersFlag != "" {
			fatal(fmt.Errorf("-join derives -site and -peers from the seed's topology; don't pass them"))
		}
		if *drive != "" {
			fatal(fmt.Errorf("-join cannot be combined with -drive (the drive mode's join=1 knob spawns its own joiner)"))
		}
		if opts.Workload != nil {
			fatal(fmt.Errorf("-join requires -workload none: the joiner receives its state from the cluster's partition cut, and transaction classes must match via -register"))
		}
		runJoin(opts, *joinSeed, listenAddr, *peerToken, *ec2, registers)
		return
	}

	if *drive != "" {
		cfg, err := parseDrive(*drive)
		if err != nil {
			fatal(err)
		}
		cfg.warmup = *warmup
		cfg.checkReplay = *checkReplay && mode != homeo.ModeLocal
		cfg.verbose = *verbose
		cfg.registers = registers
		opts.EnableLog = cfg.checkReplay
		if cfg.killSite > 0 && cfg.procs == 0 {
			fatal(fmt.Errorf("drive: kill=%d needs procs=N (only spawned peer processes can be killed)", cfg.killSite))
		}
		if (cfg.joinProcs > 0 || cfg.drainSet) && cfg.procs == 0 {
			fatal(fmt.Errorf("drive: join=/drain= need procs=N (elastic chaos runs over the multi-process fabric)"))
		}
		if cfg.procs > 0 {
			if *site >= 0 {
				fatal(fmt.Errorf("-drive procs=N spawns its own peer processes; it cannot be combined with -site"))
			}
			if strings.ToLower(*workloadName) != "none" || cfg.class == "" {
				fatal(fmt.Errorf("drive: procs=N needs -workload none plus -register/class= (merged replay reconstructs commits through registered classes)"))
			}
			os.Exit(runDriveProcs(opts, cfg))
		}
		runDrive(opts, cfg)
		return
	}
	runServe(opts, listenAddr, registers)
}

// splitPeers parses the -peers list, normalizing entries to base URLs.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		out = append(out, strings.TrimSuffix(p, "/"))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "homeostasis-serve:", err)
	os.Exit(1)
}

func buildWorkload(name string, sites, items int, refill int64, warehouses, stock int, seed int64, drift bool) (homeo.Workload, error) {
	switch strings.ToLower(name) {
	case "none", "":
		return nil, nil
	case "micro":
		cfg := micro.Config{Items: items, Refill: refill, NSites: sites}
		if drift {
			// Hot-site rotation: 90% of each site's orders hit its hot
			// window (1/10th of the items); the rotation period scales
			// with the table so per-item demand per hot phase spans
			// multiple negotiation rounds (matching the drift sweep).
			cfg.HotFrac = 0.9
			cfg.RotateEvery = 20 * items
		}
		return micro.New(cfg)
	case "tpcc":
		cfg := tpcc.Config{
			Warehouses:            warehouses,
			DistrictsPerWarehouse: 2,
			StockPerWarehouse:     stock,
			Customers:             200,
			NSites:                sites,
			Seed:                  seed,
		}
		if drift {
			// Skewed warehouse: 95% of each site's New Orders target its
			// rotating home warehouse; rotation scales with the stock
			// table (matching the drift sweep).
			cfg.WarehouseAffinity = 95
			cfg.RotateEvery = 100 * stock
		}
		return tpcc.New(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want micro, tpcc, or none)", name)
}

// driveConfig is the parsed drive mode.
type driveConfig struct {
	clients     int
	duration    time.Duration
	class       string
	procs       int
	killSite    int
	killAt      time.Duration
	joinProcs   int
	joinAt      time.Duration
	drainSite   int
	drainSet    bool
	drainAt     time.Duration
	warmup      time.Duration
	checkReplay bool
	verbose     bool
	registers   classFiles
}

// parseChaosAt parses the optional "@when" suffix of a chaos knob: ""
// and "mid" mean the knob's default offset (reported as 0), anything
// else is a positive duration from the start of the drive.
func parseChaosAt(at string) (time.Duration, error) {
	if at == "" || at == "mid" {
		return 0, nil
	}
	d, err := time.ParseDuration(at)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("drive: bad chaos time %q (want mid or a positive duration)", at)
	}
	return d, nil
}

// parseDrive parses
// "clients=N,duration=5s[,class=Name][,procs=N][,kill=site@t][,join=1@t][,drain=site@t]".
func parseDrive(s string) (driveConfig, error) {
	cfg := driveConfig{clients: 4, duration: 5 * time.Second}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("drive: bad option %q (want clients=N,duration=5s[,class=Name][,procs=N][,kill=site@t][,join=1@t][,drain=site@t])", part)
		}
		switch kv[0] {
		case "clients":
			n, err := strconv.Atoi(kv[1])
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("drive: bad clients %q", kv[1])
			}
			cfg.clients = n
		case "duration":
			d, err := time.ParseDuration(kv[1])
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("drive: bad duration %q", kv[1])
			}
			cfg.duration = d
		case "class":
			cfg.class = kv[1]
		case "procs":
			n, err := strconv.Atoi(kv[1])
			if err != nil || n < 2 {
				return cfg, fmt.Errorf("drive: bad procs %q (want >= 2)", kv[1])
			}
			cfg.procs = n
		case "kill":
			// kill=site[@when]: SIGKILL the spawned peer process serving
			// that site mid-drive, restart it, and let it recover from its
			// WAL. when is "mid" (the default — halfway through the drive)
			// or a duration offset from the start of the drive.
			v, at, _ := strings.Cut(kv[1], "@")
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("drive: bad kill site %q (want a spawned peer site >= 1)", kv[1])
			}
			cfg.killSite = n
			if cfg.killAt, err = parseChaosAt(at); err != nil {
				return cfg, err
			}
		case "join":
			// join=1[@when]: spawn a fresh joiner process mid-drive; it is
			// admitted through the two-phase join handshake and starts
			// taking client traffic as the new highest site. when is "mid"
			// (the default) or a duration offset from the drive's start.
			v, at, _ := strings.Cut(kv[1], "@")
			n, err := strconv.Atoi(v)
			if err != nil || n != 1 {
				return cfg, fmt.Errorf("drive: bad join %q (only join=1 is supported)", kv[1])
			}
			cfg.joinProcs = 1
			if cfg.joinAt, err = parseChaosAt(at); err != nil {
				return cfg, err
			}
		case "drain":
			// drain=site[@when]: drain the given original site mid-drive —
			// its deltas are absorbed into the replicated base, the slot is
			// fenced, and its clients stop. when defaults to 3/4 through the
			// drive (after a join=1@mid has landed).
			v, at, _ := strings.Cut(kv[1], "@")
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return cfg, fmt.Errorf("drive: bad drain site %q", kv[1])
			}
			cfg.drainSite, cfg.drainSet = n, true
			if cfg.drainAt, err = parseChaosAt(at); err != nil {
				return cfg, err
			}
		default:
			return cfg, fmt.Errorf("drive: unknown option %q", kv[0])
		}
	}
	return cfg, nil
}

// loadClassRequest reads a wire.ClassRequest JSON file.
func loadClassRequest(path string) (wire.ClassRequest, error) {
	var spec wire.ClassRequest
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// boot builds the cluster and reports how long it took.
func boot(opts homeo.Options) *homeo.Cluster {
	bootStart := time.Now()
	c, err := homeo.New(opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("booted %s on %d sites in %v (mode %s, alloc %s)\n",
		c.WorkloadName(), c.Sites(), time.Since(bootStart).Round(time.Millisecond),
		opts.Mode, opts.Alloc)
	return c
}

// registerLocal registers -register class files directly on the cluster
// (the boot path; drive mode registers over HTTP instead).
func registerLocal(c *homeo.Cluster, registers classFiles) {
	for _, path := range registers {
		spec, err := loadClassRequest(path)
		if err != nil {
			fatal(err)
		}
		t, err := c.Register(homeo.ClassSpec{
			Name: spec.Name, L: spec.L, SQL: spec.SQL,
			Bounds: spec.Bounds, Initial: spec.Initial, Rows: spec.Rows,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("registered class %s(%s)\n", t.Name(), strings.Join(t.Params(), ", "))
	}
}

// advertiseURL normalizes a listen address or base URL into an
// advertised peer base URL.
func advertiseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + strings.TrimSuffix(addr, "/")
}

// runServe serves the wire protocol until SIGINT/SIGTERM, then shuts down
// gracefully: stop admitting, drain in-flight transactions, print final
// stats, exit 0.
func runServe(opts homeo.Options, addr string, registers classFiles) {
	c := boot(opts)
	registerLocal(c, registers)
	// Durability: replay the WAL (if any) on top of the deterministic boot
	// state and rejoin the fabric, before the listener opens.
	if rec, err := c.Recover(); err != nil {
		fatal(err)
	} else if rec > 0 {
		fmt.Printf("recovered %d WAL records\n", rec)
	}
	serveCluster(c, addr)
}

// runJoin boots this process as a fresh site of a running multi-process
// cluster: fetch the seed member's topology (with backoff — the seed may
// itself still be booting), boot one site wider with the peers' address
// list plus our own, run the two-phase join handshake, then serve as a
// full member. The listener opens only after the join completes, so
// "healthy" implies "admitted".
func runJoin(opts homeo.Options, seed, listenAddr, token string, useEC2 bool, registers classFiles) {
	seedURL := advertiseURL(seed)
	ownURL := advertiseURL(listenAddr)
	ctx := context.Background()
	seedCl := client.New(seedURL, client.Options{PeerToken: token})

	var topo wire.TopologyResponse
	var terr error
	deadline := time.Now().Add(60 * time.Second)
	for wait := 100 * time.Millisecond; ; {
		if topo, terr = seedCl.Topology(ctx); terr == nil {
			break
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("join: seed %s never answered the topology query: %v", seedURL, terr))
		}
		time.Sleep(wait)
		if wait *= 2; wait > 2*time.Second {
			wait = 2 * time.Second
		}
	}
	if topo.Sites < 1 || len(topo.SiteAddrs) != topo.Sites || len(topo.SiteStatus) != topo.Sites {
		fatal(fmt.Errorf("join: seed %s reported an incomplete topology (%d sites, %d addresses): every member of a joinable cluster needs an advertised peer base URL",
			seedURL, topo.Sites, len(topo.SiteAddrs)))
	}
	selfSite := topo.Sites
	peers := make([]string, selfSite+1)
	for k, a := range topo.SiteAddrs {
		if a == "" && topo.SiteStatus[k] == "active" {
			fatal(fmt.Errorf("join: seed %s has no advertised address for active site %d (an in-process cluster cannot admit process joins)", seedURL, k))
		}
		peers[k] = a // "" only for gone slots, fenced before any scatter
	}
	peers[selfSite] = ownURL
	opts.Sites = selfSite + 1
	opts.Fabric = &homeo.FabricOptions{Site: selfSite, Peers: peers, Token: token}
	if useEC2 {
		opts.Topology = homeo.EC2(opts.Sites)
	}

	c := boot(opts)
	registerLocal(c, registers)
	// Fence slots that drained before we existed: they are excluded from
	// scatters and get zero treaty slack, exactly as if we had watched
	// the drain.
	for k, st := range topo.SiteStatus {
		if st == "gone" {
			c.MarkSiteGone(k)
		}
	}
	if rec, err := c.Recover(); err != nil {
		fatal(err)
	} else if rec > 0 {
		fmt.Printf("recovered %d WAL records\n", rec)
	}
	joinStart := time.Now()
	idx, err := c.Join(ownURL)
	if err != nil {
		fatal(fmt.Errorf("join via %s: %v", seedURL, err))
	}
	fmt.Printf("joined as site %d in %v (epoch %d, %d sites, %d active)\n",
		idx, time.Since(joinStart).Round(time.Millisecond), c.TopologyEpoch(), c.Sites(), c.ActiveSites())

	addr := listenAddr
	if u, perr := url.Parse(ownURL); perr == nil && u.Host != "" {
		addr = u.Host
	}
	serveCluster(c, addr)
}

// serveCluster mounts the HTTP API on a booted (and, for joiners,
// admitted) cluster and serves until SIGINT/SIGTERM.
func serveCluster(c *homeo.Cluster, addr string) {
	handler := httpapi.NewHandler(c)
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	fmt.Printf("serving on %s  (POST /v1/classes, POST /v1/txn, GET /v1/stats, GET /healthz)\n", addr)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("\n%s: shutting down...\n", sig)
	}
	// Graceful shutdown: refuse new work with 503, let in-flight requests
	// finish (bounded), then cancel whatever is still running (abandoned
	// per-call-timeout transactions) via the runtime drain.
	handler.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		_ = httpSrv.Close()
	}
	c.Close()
	st := c.Stats()
	fmt.Printf("final: committed=%d dropped=%d sync=%.2f%% store: commits=%d aborts=%d deadlocks=%d timeouts=%d\n",
		st.Committed, st.Dropped, st.SyncRatioPct,
		st.Store.Commits, st.Store.Aborts, st.Store.Deadlocks, st.Store.Timeouts)
}

// runDrive boots the server on a listener, registers classes over HTTP,
// and runs the closed-loop driver through the wire client — the exact
// code path external users take.
func runDrive(opts homeo.Options, cfg driveConfig) {
	c := boot(opts)
	handler := httpapi.NewHandler(c)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: handler}
	go httpSrv.Serve(ln)
	baseURL := "http://" + ln.Addr().String()

	ctx := context.Background()
	cl := client.New(baseURL, client.Options{Seed: opts.Seed})
	if err := cl.Health(ctx); err != nil {
		fatal(err)
	}

	// Register class files over HTTP: the online path a real client uses.
	specByName := map[string]wire.ClassRequest{}
	for _, path := range cfg.registers {
		spec, err := loadClassRequest(path)
		if err != nil {
			fatal(err)
		}
		info, err := cl.RegisterClass(ctx, spec)
		if err != nil {
			fatal(err)
		}
		specByName[info.Name] = spec
		pinned := ""
		if info.Pinned {
			pinned = " [pinned: " + info.PinReason + "]"
		}
		fmt.Printf("registered class %s(%s) over HTTP%s\n", info.Name, strings.Join(info.Params, ", "), pinned)
	}
	var driveParams []string
	var driveBounds map[string][2]int64
	if cfg.class != "" {
		spec, ok := specByName[cfg.class]
		if !ok {
			fatal(fmt.Errorf("drive: class %q was not registered via -register", cfg.class))
		}
		info, err := cl.ListClasses(ctx)
		if err != nil {
			fatal(err)
		}
		for _, ci := range info {
			if ci.Name == cfg.class {
				driveParams = ci.Params
			}
		}
		driveBounds = spec.Bounds
	}
	// Durability: classes are registered, so WAL replay can land on top.
	if rec, err := c.Recover(); err != nil {
		fatal(err)
	} else if rec > 0 {
		fmt.Printf("recovered %d WAL records\n", rec)
	}

	fmt.Printf("driving %d clients/site for %v over %s (warmup %v)...\n",
		cfg.clients, cfg.duration, baseURL, cfg.warmup)

	var stop atomic.Bool
	var submitted, failed atomic.Int64
	var wg sync.WaitGroup
	for site := 0; site < c.Sites(); site++ {
		for k := 0; k < cfg.clients; k++ {
			site := site
			id := site*cfg.clients + k
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(opts.Seed*1_000_003 + int64(id)))
				for !stop.Load() {
					req := wire.TxnRequest{Site: &site}
					if cfg.class != "" {
						req.Class = cfg.class
						req.Args = drawArgs(rng, driveParams, driveBounds)
					}
					res, err := cl.Submit(ctx, req)
					submitted.Add(1)
					if err != nil || res.Error != nil {
						failed.Add(1)
					}
				}
			}()
		}
	}
	time.Sleep(cfg.warmup)
	c.BeginMeasure()
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()

	// Report through the wire protocol, like any external observer.
	st, err := cl.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nsubmitted:        %d (%d failed client-side)\n", submitted.Load(), failed.Load())
	fmt.Printf("committed:        %d (%.1f txn/s real)\n", st.Committed, st.ThroughputTxnS)
	fmt.Printf("sync ratio:       %.2f%%\n", st.SyncRatioPct)
	fmt.Printf("conflict aborts:  %d\n", st.ConflictAborts)
	fmt.Printf("dropped:          %d (livelocked %d)\n", st.Dropped, st.Livelocked)
	if opts.Alloc != homeo.AllocDefault {
		fmt.Printf("co-winners:       %d (batched cleanup commits)\n", st.CoWinnerCommits)
	}
	if st.TreatyGenFailures > 0 {
		fmt.Printf("gen failures:     %d (units degraded to pin treaties)\n", st.TreatyGenFailures)
	}
	fmt.Printf("latency:          p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms\n",
		st.LatencyP50MS, st.LatencyP90MS, st.LatencyP99MS, st.LatencyMaxMS)
	fmt.Printf("store (cluster):  commits=%d aborts=%d deadlocks=%d timeouts=%d\n",
		st.StoreCluster.Commits, st.StoreCluster.Aborts, st.StoreCluster.Deadlocks, st.StoreCluster.Timeouts)
	if cfg.verbose {
		for site, s := range st.StorePerSite {
			fmt.Printf("store (site %d):   commits=%d aborts=%d deadlocks=%d timeouts=%d\n",
				site, s.Commits, s.Aborts, s.Deadlocks, s.Timeouts)
		}
		fmt.Printf("analysis cache:   hits=%d misses=%d\n",
			st.AnalysisCacheHits, st.AnalysisCacheMisses)
		fmt.Printf("solver:           warm-starts=%d fallbacks=%d\n",
			st.SolverWarmStarts, st.SolverFallbacks)
	}

	handler.Drain()
	_ = httpSrv.Close()
	c.Close()

	exit := 0
	if st.Committed == 0 {
		fmt.Println("FAIL: no transactions committed in the measurement window")
		exit = 1
	}
	if cfg.checkReplay {
		if err := c.CheckReplayEquivalence(); err != nil {
			fmt.Println("FAIL: replay equivalence:", err)
			exit = 1
		} else {
			fmt.Printf("replay check:     OK (%d committed transactions observationally equivalent under serial replay)\n",
				c.Committed())
		}
	}
	if live := c.System().E.Live(); live != 0 {
		fmt.Printf("FAIL: %d processes still alive after drain\n", live)
		exit = 1
	}
	os.Exit(exit)
}

// drawArgs draws an argument vector for the driven class: uniform within
// the declared bounds, zero for unbounded parameters.
func drawArgs(rng *rand.Rand, params []string, bounds map[string][2]int64) []int64 {
	args := make([]int64, len(params))
	for i, p := range params {
		if b, ok := bounds[p]; ok && b[1] >= b[0] {
			args[i] = b[0] + rng.Int63n(b[1]-b[0]+1)
		}
	}
	return args
}

// childFlagSkip lists flags runDriveProcs must not forward verbatim to
// the peer processes it spawns (they get their own
// -site/-peers/-addr/-wal-dir, and must not re-enter drive mode).
// -register IS forwarded: every process registers the same class files in
// the same order at boot, so a peer restarted by the kill= chaos knob
// re-derives identical units before replaying its WAL.
var childFlagSkip = map[string]bool{
	"drive": true, "addr": true, "site": true, "peers": true,
	"enable-log": true, "warmup": true, "wal-dir": true,
	"check-replay": true, "v": true, "peer-token": true, "join": true,
}

// reservePorts picks n distinct free loopback ports by binding and
// releasing them together.
func reservePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			break
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	if len(addrs) < n {
		return nil, fmt.Errorf("could not reserve %d loopback ports", n)
	}
	return addrs, nil
}

// runDriveProcs is the multi-process drive mode: spawn procs-1 peer
// processes (this binary with -site k -peers ...), serve site 0 itself,
// run the closed-loop driver against each site's own server, and verify
// the merged commit log (ordered by Lamport clock across processes) is
// observationally equivalent under serial replay. Every process —
// including the spawned peers — registers the same -register class files
// in the same order at boot. With kill=site@t one peer is SIGKILLed
// mid-drive and restarted; it replays its write-ahead log, rejoins the
// fabric, and the replay check runs over the merged post-recovery logs.
func runDriveProcs(opts homeo.Options, cfg driveConfig) (exit int) {
	n := cfg.procs
	total := n + cfg.joinProcs // joiner (if any) becomes site n
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "homeostasis-serve:", err)
		return 1
	}
	if cfg.killSite >= n {
		return fail(fmt.Errorf("drive: kill=%d out of range (procs=%d spawns peer sites 1..%d)", cfg.killSite, n, n-1))
	}
	if cfg.drainSet {
		if cfg.drainSite >= n {
			return fail(fmt.Errorf("drive: drain=%d out of range (procs=%d runs original sites 0..%d)", cfg.drainSite, n, n-1))
		}
		if cfg.drainSite == cfg.killSite && cfg.killSite > 0 {
			return fail(fmt.Errorf("drive: drain=%d and kill=%d name the same site", cfg.drainSite, cfg.killSite))
		}
	}
	if cfg.killSite > 0 && opts.WAL.Dir == "" {
		// A kill without durability would just lose the site's history;
		// give the cluster a scratch WAL when the operator didn't.
		dir, err := os.MkdirTemp("", "homeo-wal-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		opts.WAL.Dir = dir
		fmt.Printf("kill=%d: write-ahead logs in %s\n", cfg.killSite, dir)
	}
	// Reserve one port per original site, plus the joiner's (assigned up
	// front so its advertised URL is stable across the whole run).
	addrs, err := reservePorts(total)
	if err != nil {
		return fail(err)
	}
	allPeers := make([]string, total)
	for k := range allPeers {
		allPeers[k] = "http://" + addrs[k]
	}
	peers := allPeers[:n] // the boot membership; the joiner announces itself
	// One shared secret for the whole spawned cluster, fresh per run.
	tokenBytes := make([]byte, 16)
	if _, err := cryptorand.Read(tokenBytes); err != nil {
		return fail(err)
	}
	token := hex.EncodeToString(tokenBytes)
	opts.Sites = n
	opts.Fabric = &homeo.FabricOptions{Site: 0, Peers: peers, Token: token}
	opts.EnableLog = true

	// Forward the protocol/workload flags the operator set; each peer is
	// one site of the same cluster and must be configured identically.
	var inherited []string
	flag.Visit(func(f *flag.Flag) {
		if !childFlagSkip[f.Name] {
			inherited = append(inherited, "-"+f.Name+"="+f.Value.String())
		}
	})
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	childArgs := make([][]string, total)
	for k := 1; k < n; k++ {
		args := append([]string{}, inherited...)
		args = append(args,
			"-site", strconv.Itoa(k),
			"-peers", strings.Join(addrs[:n], ","),
			"-addr", addrs[k],
			"-peer-token", token,
			"-enable-log")
		if opts.WAL.Dir != "" {
			args = append(args, "-wal-dir", opts.WAL.Dir)
		}
		childArgs[k] = args
	}
	if cfg.joinProcs > 0 {
		// The joiner derives its own -site/-peers from the seed's topology
		// (site 0, this process) at spawn time.
		args := append([]string{}, inherited...)
		args = append(args,
			"-join", allPeers[0],
			"-addr", addrs[n],
			"-peer-token", token,
			"-enable-log")
		if opts.WAL.Dir != "" {
			args = append(args, "-wal-dir", opts.WAL.Dir)
		}
		childArgs[n] = args
	}
	// Each child gets its own process group, and the deferred reaper
	// SIGKILLs whatever is still running on any exit path — a driver
	// failure must not leak orphan site processes.
	children := make([]*exec.Cmd, total)
	startChild := func(k int) (*exec.Cmd, error) {
		ch := exec.Command(self, childArgs[k]...)
		ch.Stdout = os.Stderr
		ch.Stderr = os.Stderr
		ch.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if err := ch.Start(); err != nil {
			return nil, err
		}
		return ch, nil
	}
	defer func() {
		for _, ch := range children {
			if ch != nil && ch.Process != nil && ch.ProcessState == nil {
				_ = syscall.Kill(-ch.Process.Pid, syscall.SIGKILL)
				_ = ch.Wait()
			}
		}
	}()
	for k := 1; k < n; k++ {
		ch, err := startChild(k)
		if err != nil {
			return fail(err)
		}
		children[k] = ch
	}

	// Site 0 lives in this process, mounted on its reserved address. It
	// registers the class files locally in file order — the same order
	// every child registers them at boot — then recovers its WAL (classes
	// first: replay needs the derived units).
	bootStart := time.Now()
	c, err := homeo.New(opts)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("booted %s on %d sites in %v (mode %s, alloc %s)\n",
		c.WorkloadName(), c.Sites(), time.Since(bootStart).Round(time.Millisecond),
		opts.Mode, opts.Alloc)
	var driveParams []string
	var driveBounds map[string][2]int64
	for _, path := range cfg.registers {
		spec, err := loadClassRequest(path)
		if err != nil {
			return fail(err)
		}
		t, err := c.Register(homeo.ClassSpec{
			Name: spec.Name, L: spec.L, SQL: spec.SQL,
			Bounds: spec.Bounds, Initial: spec.Initial, Rows: spec.Rows,
		})
		if err != nil {
			return fail(fmt.Errorf("registering %s: %v", path, err))
		}
		if t.Name() == cfg.class {
			driveParams = t.Params()
			driveBounds = spec.Bounds
		}
	}
	if driveParams == nil {
		return fail(fmt.Errorf("drive: class %q was not registered via -register", cfg.class))
	}
	if _, err := c.Recover(); err != nil {
		return fail(err)
	}
	handler := httpapi.NewHandler(c)
	ln, err := net.Listen("tcp", addrs[0])
	if err != nil {
		return fail(err)
	}
	httpSrv := &http.Server{Handler: handler}
	go httpSrv.Serve(ln)

	ctx := context.Background()
	// Health polling backs off exponentially: on a loaded 1-core box the
	// siblings boot serially, so a late-started process is normal, not an
	// error — keep retrying within the budget instead of fataling early.
	waitHealthy := func(k int, cl *client.Client, budget time.Duration) error {
		deadline := time.Now().Add(budget)
		wait := 25 * time.Millisecond
		for {
			if err := cl.Health(ctx); err == nil {
				return nil
			} else if time.Now().After(deadline) {
				return fmt.Errorf("site %d (%s) never became healthy: %v", k, allPeers[k], err)
			}
			time.Sleep(wait)
			if wait *= 2; wait > 500*time.Millisecond {
				wait = 500 * time.Millisecond
			}
		}
	}
	clients := make([]*client.Client, total)
	for k := 0; k < n; k++ {
		clients[k] = client.New(allPeers[k], client.Options{Seed: opts.Seed + int64(k), PeerToken: token})
		if err := waitHealthy(k, clients[k], 30*time.Second); err != nil {
			return fail(err)
		}
	}
	fmt.Printf("site fabric up: %d processes (%s), %d class files registered at every site\n",
		n, strings.Join(addrs[:n], " "), len(cfg.registers))

	fmt.Printf("driving %d clients/site against %d site processes for %v...\n",
		cfg.clients, n, cfg.duration)
	fmt.Println("(note: per-site stats windows start at process boot — -warmup does not apply across processes)")
	var stop atomic.Bool
	stopSite := make([]atomic.Bool, total) // drained sites stop their clients
	var submitted, failed atomic.Int64
	var wg sync.WaitGroup
	startClients := func(siteIdx int) {
		for kk := 0; kk < cfg.clients; kk++ {
			cl := clients[siteIdx]
			id := siteIdx*cfg.clients + kk
			halt := &stopSite[siteIdx]
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(opts.Seed*1_000_003 + int64(id)))
				for !stop.Load() && !halt.Load() {
					req := wire.TxnRequest{Class: cfg.class, Args: drawArgs(rng, driveParams, driveBounds)}
					res, err := cl.Submit(ctx, req)
					submitted.Add(1)
					if err != nil || res.Error != nil {
						failed.Add(1)
					}
				}
			}()
		}
	}
	for siteIdx := 0; siteIdx < n; siteIdx++ {
		startClients(siteIdx)
	}

	// Chaos timeline: each knob is one event at an offset into the drive,
	// run in order on this goroutine while the clients hammer away.
	type chaosEvent struct {
		at  time.Duration
		run func(at time.Duration) error
	}
	clampAt := func(at, dflt time.Duration) time.Duration {
		if at <= 0 || at >= cfg.duration {
			return dflt
		}
		return at
	}
	var events []chaosEvent
	if cfg.killSite > 0 {
		events = append(events, chaosEvent{clampAt(cfg.killAt, cfg.duration/2), func(at time.Duration) error {
			k := cfg.killSite
			pid := children[k].Process.Pid
			fmt.Printf("chaos: SIGKILL site %d (pid %d) %v into the drive\n", k, pid, at)
			_ = syscall.Kill(-pid, syscall.SIGKILL)
			_ = children[k].Wait()
			ch, err := startChild(k)
			if err != nil {
				return fmt.Errorf("restarting site %d: %v", k, err)
			}
			children[k] = ch
			if err := waitHealthy(k, clients[k], 30*time.Second); err != nil {
				return fmt.Errorf("site %d did not recover: %v", k, err)
			}
			fmt.Printf("chaos: site %d restarted, recovered, and rejoined\n", k)
			return nil
		}})
	}
	if cfg.joinProcs > 0 {
		events = append(events, chaosEvent{clampAt(cfg.joinAt, cfg.duration/2), func(at time.Duration) error {
			k := n
			fmt.Printf("chaos: spawning joiner site %d (%s) %v into the drive\n", k, addrs[k], at)
			ch, err := startChild(k)
			if err != nil {
				return fmt.Errorf("starting joiner: %v", err)
			}
			children[k] = ch
			clients[k] = client.New(allPeers[k], client.Options{Seed: opts.Seed + int64(k), PeerToken: token})
			// The joiner's listener opens only after the join handshake
			// completes, so healthy implies admitted.
			if err := waitHealthy(k, clients[k], 60*time.Second); err != nil {
				return fmt.Errorf("joiner never became healthy: %v", err)
			}
			st, serr := clients[k].Stats(ctx)
			if serr != nil {
				return fmt.Errorf("joiner stats: %v", serr)
			}
			fmt.Printf("chaos: site %d joined (epoch %d, %d sites) — starting its clients\n", k, st.TopologyEpoch, st.Sites)
			startClients(k)
			return nil
		}})
	}
	if cfg.drainSet {
		events = append(events, chaosEvent{clampAt(cfg.drainAt, 3*cfg.duration/4), func(at time.Duration) error {
			s := cfg.drainSite
			fmt.Printf("chaos: draining site %d %v into the drive\n", s, at)
			var derr error
			if s == 0 {
				// Site 0 is this process: drain it directly.
				derr = c.Drain(0)
			} else {
				dctx, cancel := context.WithTimeout(ctx, 60*time.Second)
				_, derr = clients[s].DrainSite(dctx, s)
				cancel()
			}
			if derr != nil {
				return fmt.Errorf("draining site %d: %v", s, derr)
			}
			stopSite[s].Store(true)
			fmt.Printf("chaos: site %d drained (deltas absorbed into the base, slot fenced)\n", s)
			return nil
		}})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	elapsed := time.Duration(0)
	for _, ev := range events {
		if ev.at > elapsed {
			time.Sleep(ev.at - elapsed)
			elapsed = ev.at
		}
		if err := ev.run(ev.at); err != nil {
			stop.Store(true)
			wg.Wait()
			return fail(err)
		}
	}
	if cfg.duration > elapsed {
		time.Sleep(cfg.duration - elapsed)
	}
	stop.Store(true)
	wg.Wait()

	// Gather per-process stats, logs, and partitions over the wire — from
	// every process that ran, including a drained site (its partition is
	// the absorbed base) and a mid-drive joiner.
	procsRan := 0
	var totalCommitted, totalSynced, totalNeg int64
	logs := make([][]wire.LogEntry, total)
	parts := make([]wire.PartitionResponse, 0, total)
	for k, cl := range clients {
		if cl == nil {
			continue // joiner slot when the join event never fired
		}
		procsRan++
		st, err := cl.Stats(ctx)
		if err != nil {
			return fail(fmt.Errorf("stats from site %d: %v", k, err))
		}
		totalCommitted += st.Committed
		totalSynced += st.Synced
		totalNeg += st.Negotiations
		fmt.Printf("site %d: committed=%d synced=%d negotiations=%d neg-p50=%.3fms neg-p99=%.3fms fabric-errors=%d\n",
			k, st.Committed, st.Synced, st.Negotiations, st.NegLatencyP50MS, st.NegLatencyP99MS, st.FabricErrors)
		if st.RecoveredWALRecords > 0 || st.RoundsAdopted > 0 || st.RoundsAborted > 0 {
			fmt.Printf("site %d: recovered %d WAL records, failover rounds adopted=%d aborted=%d\n",
				k, st.RecoveredWALRecords, st.RoundsAdopted, st.RoundsAborted)
		}
		lr, err := cl.PeerLog(ctx)
		if err != nil {
			return fail(fmt.Errorf("commit log from site %d: %v", k, err))
		}
		logs[k] = lr.Entries
		pt, err := cl.PeerDB(ctx)
		if err != nil {
			return fail(fmt.Errorf("partition from site %d: %v", k, err))
		}
		parts = append(parts, pt)
	}
	fmt.Printf("\nsubmitted:        %d (%d failed client-side)\n", submitted.Load(), failed.Load())
	fmt.Printf("committed:        %d across %d processes (%.1f txn/s)\n",
		totalCommitted, procsRan, float64(totalCommitted)/cfg.duration.Seconds())
	fmt.Printf("sync rounds:      %d (each = 2 peer message rounds over the HTTP fabric)\n", totalNeg)

	if totalCommitted == 0 {
		fmt.Println("FAIL: no transactions committed")
		exit = 1
	}
	if cfg.checkReplay {
		if err := c.CheckMergedReplay(logs, parts); err != nil {
			fmt.Println("FAIL: merged replay equivalence:", err)
			exit = 1
		} else {
			committedEntries := 0
			for _, l := range logs {
				committedEntries += len(l)
			}
			fmt.Printf("replay check:     OK (%d commits from %d processes observationally equivalent under serial replay)\n",
				committedEntries, procsRan)
		}
	}

	// Graceful teardown: children first (they may still hold peer
	// connections to us), then our own server. The deferred reaper skips
	// anything already waited on here.
	for _, ch := range children {
		if ch != nil {
			_ = ch.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, ch := range children {
		if ch != nil {
			_ = ch.Wait()
		}
	}
	handler.Drain()
	_ = httpSrv.Close()
	c.Close()
	return exit
}
