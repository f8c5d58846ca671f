package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/httpapi"
	"repro/homeo/wire"
	"repro/internal/drive"
)

// bootRegistered boots the cluster and registers the -register class files
// on it. Replaying the WAL is the caller's: a joiner has slots to fence first.
func bootRegistered(opts homeo.Options, registers []string) *homeo.Cluster {
	c, err := drive.Boot(opts, os.Stdout)
	if err != nil {
		fatal(err)
	}
	for _, path := range registers {
		spec, err := drive.LoadClass(path)
		if err != nil {
			fatal(err)
		}
		t, err := c.Register(homeo.ClassSpec(spec))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("registered class %s(%s)\n", t.Name(), strings.Join(t.Params(), ", "))
	}
	return c
}

// recoverWAL replays the WAL (if any) onto the deterministic boot state and
// rejoins the fabric: after the classes (replay needs the derived units) and
// before the listener opens.
func recoverWAL(c *homeo.Cluster) {
	if rec, err := c.Recover(); err != nil {
		fatal(err)
	} else if rec > 0 {
		fmt.Printf("recovered %d WAL records\n", rec)
	}
}

// advertiseURL normalizes a listen address or base URL into a peer base URL.
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
func runServe(opts homeo.Options, addr string, registers []string) {
	c := bootRegistered(opts, registers)
	recoverWAL(c)
	serveCluster(c, addr)
}

// runJoin boots this process as a fresh site of a running multi-process
// cluster: fetch the seed member's topology (waiting for it — the seed may
// itself still be booting), boot one site wider with the peers' addresses
// plus our own, run the two-phase join handshake, then serve as a full
// member. The listener opens only after the join: "healthy" implies "admitted".
func runJoin(opts homeo.Options, seed, listenAddr, token string, useEC2 bool, registers []string) {
	seedURL := advertiseURL(seed)
	ownURL := advertiseURL(listenAddr)
	err := drive.WaitUp(seedURL, token, 60*time.Second)
	var topo wire.TopologyResponse
	if err == nil {
		topo, err = client.New(seedURL, client.Options{PeerToken: token}).Topology(context.Background())
	}
	if err != nil {
		fatal(fmt.Errorf("join: seed %s never answered the topology query: %v", seedURL, err))
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

	c := bootRegistered(opts, registers)
	// Fence slots that drained before we existed: excluded from scatters and
	// given zero treaty slack, exactly as if we had watched the drain.
	for k, st := range topo.SiteStatus {
		if st == "gone" {
			c.MarkSiteGone(k)
		}
	}
	recoverWAL(c)
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
	// finish (bounded), then cancel what still runs via the runtime drain.
	handler.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		_ = httpSrv.Close()
	}
	c.Close()
	st := c.Stats()
	fmt.Printf("final: committed=%d dropped=%d sync=%.2f%% store: %s\n", st.Committed, st.Dropped, st.SyncRatioPct, st.Store)
}
