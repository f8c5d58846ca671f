// Command homeostasis-serve boots a live multi-site homeostasis cluster
// and serves the versioned /v1 wire protocol. It is a thin shell — flags
// to homeo.Options, then serve, join or drive — over the public embeddable
// API: repro/homeo builds and runs the cluster, repro/homeo/httpapi serves
// the protocol, repro/homeo/client drives it, and internal/drive is the
// drive mode's harness. docs/OPERATIONS.md is the operator's guide.
//
// Serving mode (default) exposes HTTP/JSON:
//
//	homeostasis-serve -workload tpcc -sites 3 -addr :8080
//	curl -s -X POST localhost:8080/v1/classes -d '{"l":"transaction Deposit(n) { v := read(acct); write(acct = v + n) }"}'
//	curl -s -X POST localhost:8080/v1/txn -d '{"class":"Deposit","args":[5]}'
//	curl -s -X POST localhost:8080/v1/txn -d '{"site":0}'        # base workload mix
//	curl -s localhost:8080/v1/stats
//
// POST /v1/classes registers a transaction class from L or SQL source: the
// server analyzes it and generates treaties online, so transactions never
// seen at compile time serve coordination-free where the analysis allows.
// POST /v1/txn invokes a registered class (or draws from the base workload's
// mix), one transaction per request, with 429 backpressure and structured
// error codes (package homeo/wire). On SIGINT/SIGTERM the server stops
// admitting (503), drains in-flight work, prints final stats, and exits 0.
//
// Drive mode runs closed-loop clients over the same wire protocol (package
// internal/drive), prints real throughput and latency, verifies the commit
// log is observationally equivalent under serial replay (Theorem 3.8), and
// exits nonzero on zero commits or a failed check:
//
//	homeostasis-serve -workload tpcc -drive clients=8,duration=5s
//	homeostasis-serve -workload none -register class.json -drive clients=4,duration=5s,class=Deposit
//
// Multi-process mode runs one site per OS process over the HTTP site fabric
// (internal/fabric): transactions commit locally with no peer traffic while
// treaties hold, and a violation pays exactly two peer message rounds:
//
//	homeostasis-serve -workload none -site 0 -peers h0:8080,h1:8080,h2:8080 -enable-log
//	homeostasis-serve -workload none -site 1 -peers h0:8080,h1:8080,h2:8080 -enable-log  # on h1
//
// Every process must get the same workload/protocol flags and seed, and
// classes must be registered at every site in the same order. -drive
// ...,procs=N does all of it on one machine (it spawns N-1 peer processes and
// replay-checks the logs merged by Lamport clock), with kill=, join= and
// drain= events mid-drive.
//
// Elastic topology: -join seeds a fresh process from any serving member of
// a running multi-process cluster — it fetches the member's topology, boots
// one site wider, and is admitted through the two-phase join handshake:
//
//	homeostasis-serve -workload none -register class.json -join h0:8080 -addr h3:8080 -enable-log
//
// POST /v1/topology/drain retires a site (its deltas are absorbed into the
// replicated base, then the slot is fenced).
package main

import (
	"flag"
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/homeo"
	"repro/internal/drive"
	"repro/internal/micro"
	"repro/internal/tpcc"
)

// serviceTime maps the -exec-time flag to homeo.Options.LocalExecTime. The
// engine reads a zero service time as "unset" and substitutes its 2 ms default,
// so an explicit -exec-time 0 is passed as the smallest service time instead.
func serviceTime(flagValue time.Duration) time.Duration {
	if flagValue == 0 {
		return time.Nanosecond
	}
	return flagValue
}

func main() {
	opts := homeo.Options{Runtime: homeo.RuntimeLive}
	var registers []string
	var (
		workloadName = flag.String("workload", "tpcc", "base workload: micro, tpcc, or none (serve only registered classes)")
		site         = flag.Int("site", -1, "multi-process mode: the one site this process serves (requires -peers)")
		peersFlag    = flag.String("peers", "", "multi-process mode: comma-separated base URLs of every site in site order (peers[site] is this process)")
		peerToken    = flag.String("peer-token", "", "multi-process mode: shared secret required on /v1/peer/* mutations (set it whenever peers cross a real network)")
		modeName     = flag.String("mode", "homeo", "protocol: homeo, opt, homeo-default, 2pc, or local")
		allocName    = flag.String("alloc", "default", "treaty allocation: default (mode's builtin), equal, model, or adaptive (non-default also enables batched renegotiation)")
		drift        = flag.Bool("drift", false, "enable the workload's drift scenario (micro: hot-site rotation; tpcc: skewed warehouse)")
		ec2          = flag.Bool("ec2", false, "use the paper's Table 1 EC2 inter-region RTTs instead of -rtt")
		execTime     = flag.Duration("exec-time", 2*time.Millisecond, "local execution service time per transaction (0 = none: runs the engine at its smallest, 1ns)")
		items        = flag.Int("items", 200, "micro: stock items")
		refill       = flag.Int64("refill", 100, "micro: REFILL constant")
		warehouses   = flag.Int("warehouses", 2, "tpcc: warehouses")
		stock        = flag.Int("stock", 30, "tpcc: stock rows per warehouse")
		addr         = flag.String("addr", ":8080", "serving mode: HTTP listen address (drive mode: loopback default)")
		joinSeed     = flag.String("join", "", "elastic join: base URL of any serving member of a running multi-process cluster; this process boots one site wider, is admitted through the two-phase join handshake, and serves (requires -workload none plus the cluster's -register files and protocol flags)")
		driveFlag    = flag.String("drive", "", "drive mode: "+drive.Grammar+" (closed-loop load over the wire protocol, then exit)")
		warmup       = flag.Duration("warmup", 250*time.Millisecond, "drive mode: warm-up before measuring")
		checkReplay  = flag.Bool("check-replay", true, "drive mode: verify serial-replay equivalence of the commit log")
		verbose      = flag.Bool("v", false, "drive mode: also print per-site store counters")
	)
	flag.IntVar(&opts.Sites, "sites", 2, "number of replica sites")
	flag.DurationVar(&opts.RTT, "rtt", 50*time.Millisecond, "uniform inter-site round-trip time (really slept)")
	flag.IntVar(&opts.CPUPerSite, "cpu", 4, "CPU slots per site (a real concurrency limit)")
	flag.DurationVar(&opts.LockTimeout, "lock-timeout", time.Second, "2PL lock-wait timeout")
	flag.Int64Var(&opts.Seed, "seed", 1, "seed for treaty optimization and request draws")
	flag.IntVar(&opts.MaxInflight, "max-inflight", 1024, "submissions in flight before 429 backpressure")
	flag.BoolVar(&opts.EnableLog, "enable-log", false, "record the commit log (GET /v1/peer/log) for replay checks; drive mode forces it")
	flag.StringVar(&opts.WAL.Dir, "wal-dir", "", "durability: directory for per-site write-ahead logs (site-<k>.wal); boot replays it and rejoins the fabric")
	flag.BoolVar(&opts.WAL.Sync, "wal-sync", false, "durability: fsync every WAL batch before acknowledging (survives power loss, slower)")
	flag.Func("register", "register a transaction class from a JSON file (wire ClassRequest; repeatable; drive mode registers over HTTP)", func(path string) error {
		registers = append(registers, path)
		return nil
	})
	flag.Parse()

	var err error
	if opts.Mode, err = homeo.ParseMode(*modeName); err != nil {
		fatal(err)
	}
	if opts.Alloc, err = homeo.ParseAlloc(*allocName); err != nil {
		fatal(err)
	}
	opts.LocalExecTime = serviceTime(*execTime)
	listenAddr := *addr
	if *site >= 0 {
		// Multi-process mode: this process owns exactly one site, and the
		// peer list fixes the cluster width; -sites is ignored here.
		peers := splitPeers(*peersFlag)
		if len(peers) < 2 {
			fatal(fmt.Errorf("-site requires -peers naming at least two sites"))
		}
		if *site >= len(peers) {
			fatal(fmt.Errorf("-site %d out of range for %d peers", *site, len(peers)))
		}
		opts.Sites = len(peers)
		opts.Fabric = &homeo.FabricOptions{Site: *site, Peers: peers, Token: *peerToken}
		if listenAddr == ":8080" {
			// Default the listen address to this site's peer URL.
			if u, perr := url.Parse(peers[*site]); perr == nil && u.Host != "" {
				listenAddr = u.Host
			}
		}
	}
	// Built at the final width, so every process draws an identical instance.
	if opts.Workload, err = buildWorkload(*workloadName, opts.Sites, *items, *refill, *warehouses, *stock, opts.Seed, *drift); err != nil {
		fatal(err)
	}
	if *ec2 {
		opts.Topology = homeo.EC2(opts.Sites)
	}

	if *driveFlag != "" {
		spec, err := drive.ParseSpec(*driveFlag, drive.Flags{BaseWorkload: opts.Workload != nil, Site: *site >= 0, Join: *joinSeed != ""})
		if err != nil {
			fatal(err)
		}
		spec.Warmup, spec.Verbose, spec.Registers = *warmup, *verbose, registers
		spec.CheckReplay = *checkReplay && opts.Mode != homeo.ModeLocal
		spawn, err := spawner(registers)
		if err != nil {
			fatal(err)
		}
		rep, err := drive.Run(opts, spec, &drive.Live{Spawn: spawn}, os.Stdout)
		if err != nil {
			fatal(err)
		}
		os.Exit(rep.Verdict(os.Stdout))
	}
	if *joinSeed != "" {
		// Elastic join: the peer list and our own site index come from the
		// seed member's topology; -site/-peers/-sites don't apply.
		if *site >= 0 || *peersFlag != "" {
			fatal(fmt.Errorf("-join derives -site and -peers from the seed's topology; don't pass them"))
		}
		if opts.Workload != nil {
			fatal(fmt.Errorf("-join requires -workload none: the joiner receives its state from the cluster's partition cut, and transaction classes must match via -register"))
		}
		runJoin(opts, *joinSeed, listenAddr, *peerToken, *ec2, registers)
		return
	}
	runServe(opts, listenAddr, registers)
}

// childFlagSkip lists the flags a drive's spawned processes must not inherit
// as given: they get their own from the runner and must not re-enter drive mode.
var childFlagSkip = map[string]bool{
	"drive": true, "addr": true, "site": true, "peers": true,
	"enable-log": true, "warmup": true, "wal-dir": true, "register": true,
	"check-replay": true, "v": true, "peer-token": true, "join": true,
}

// spawner returns the drive's Spawn: this binary with the protocol and
// workload flags the operator set (each process is one site of the same
// cluster and must be configured identically), then the class files, which
// every process registers in the same order at boot, then the runner's.
func spawner(registers []string) (drive.Spawn, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var inherited []string
	flag.Visit(func(f *flag.Flag) {
		if !childFlagSkip[f.Name] {
			inherited = append(inherited, "-"+f.Name+"="+f.Value.String())
		}
	})
	for _, path := range registers {
		inherited = append(inherited, "-register="+path)
	}
	return func(args ...string) *exec.Cmd {
		return exec.Command(self, append(inherited[:len(inherited):len(inherited)], args...)...)
	}, nil
}

// splitPeers parses the -peers list, normalizing entries to base URLs.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, advertiseURL(p))
		}
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
			cfg = cfg.Drift()
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
			cfg = cfg.Drift()
		}
		return tpcc.New(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want micro, tpcc, or none)", name)
}
