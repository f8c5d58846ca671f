package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/homeo/client"
	"repro/homeo/wire"
)

// TestBackoffCapped pins the MaxDelay clamp: with a large attempt budget
// the uncapped doubling (RetryBase << n) overflows time.Duration around
// attempt 63 and turns the backoff negative — i.e. into a hot retry
// loop. With the cap every delay is bounded by MaxDelay and floored by
// the jitter's 0.5x factor, so the retries neither spin nor stall.
func TestBackoffCapped(t *testing.T) {
	var mu sync.Mutex
	var times []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		mu.Lock()
		times = append(times, time.Now())
		mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(rw).Encode(wire.ErrorResponse{Error: wire.Error{Code: "dropped", Message: "full"}})
	}))
	defer srv.Close()

	const attempts = 70 // far past the 63-bit shift horizon
	cl := client.New(srv.URL, client.Options{
		MaxAttempts: attempts,
		RetryBase:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Seed:        1,
	})
	start := time.Now()
	_, err := cl.Submit(context.Background(), wire.TxnRequest{Class: "X"})
	elapsed := time.Since(start)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want exhausted 429", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) != attempts {
		t.Fatalf("server saw %d attempts, want %d", len(times), attempts)
	}
	// Every gap from attempt 4 on is past the doubling horizon for a 1ms
	// base and must sit in [0.5*MaxDelay, MaxDelay] plus scheduling
	// slack; an overflow-to-negative backoff would collapse gaps to
	// microseconds.
	for i := 4; i < len(times); i++ {
		if gap := times[i].Sub(times[i-1]); gap < 2*time.Millisecond {
			t.Fatalf("gap %d = %v, want >= 2ms (backoff collapsed)", i, gap)
		}
	}
	if elapsed > 10*time.Second {
		t.Fatalf("70 capped retries took %v, want well under 10s", elapsed)
	}
}

// TestUndecodableReplyIsNotRetried: a 2xx answer whose body is not the
// reply the call expects fails once, naming the status, with no retry —
// the server did the work, so a second attempt could do it twice.
func TestUndecodableReplyIsNotRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		hits.Add(1)
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte("not a reply"))
	}))
	defer srv.Close()
	cl := client.New(srv.URL, client.Options{MaxAttempts: 3, RetryBase: time.Millisecond})
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"submit": func() error { _, err := cl.Submit(ctx, wire.TxnRequest{Class: "X"}); return err },
		"register": func() error {
			_, err := cl.RegisterClass(ctx, wire.ClassRequest{L: "transaction X() { skip }"})
			return err
		},
		"stats": func() error { _, err := cl.Stats(ctx); return err },
	} {
		hits.Store(0)
		err := call()
		if err == nil || !strings.Contains(err.Error(), "homeo api: decoding 200 response") {
			t.Errorf("%s: err = %v, want a decode failure of the 200 response", name, err)
		}
		if n := hits.Load(); n != 1 {
			t.Errorf("%s: %d attempts, want 1", name, n)
		}
	}
}

// topoStub builds a fake site: txn answers with the given handler, stats
// reports the supplied topology (the pool's refresh source).
func topoStub(t *testing.T, txn http.HandlerFunc, stats func() wire.Stats) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/txn":
			txn(rw, req)
		case "/v1/stats":
			json.NewEncoder(rw).Encode(stats())
		default:
			http.NotFound(rw, req)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// gone410 answers every submission with the drained-site refusal.
func gone410(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusGone)
	json.NewEncoder(rw).Encode(wire.ErrorResponse{Error: wire.Error{Code: "site_gone", Message: "site 0 drained"}})
}

// TestPoolFailoverOnSiteGone: a 410 site_gone refusal makes the pool
// drop the drained base, adopt the newer epoch from a survivor's stats,
// and retry the submission there — the caller sees only the commit.
func TestPoolFailoverOnSiteGone(t *testing.T) {
	var commits atomic.Int64
	var topoOf func() wire.Stats
	b := topoStub(t, func(rw http.ResponseWriter, _ *http.Request) {
		commits.Add(1)
		json.NewEncoder(rw).Encode(wire.TxnResult{Class: "X", Committed: true, Site: 1})
	}, func() wire.Stats { return topoOf() })
	a := topoStub(t, gone410, func() wire.Stats { return topoOf() })
	// Both sites agree: epoch 2, slot 0 gone, slot 1 (b) the only active.
	topoOf = func() wire.Stats {
		return wire.Stats{
			TopologyEpoch: 2,
			ActiveSites:   1,
			SiteStatus:    []string{"gone", "active"},
			SiteAddrs:     []string{a.URL, b.URL},
		}
	}

	p := client.NewPool([]string{a.URL, b.URL}, client.Options{MaxAttempts: 1, Seed: 1})
	res, err := p.Submit(context.Background(), wire.TxnRequest{Class: "X"})
	if err != nil || !res.Committed {
		t.Fatalf("failover submit = (%+v, %v)", res, err)
	}
	if commits.Load() != 1 {
		t.Fatalf("survivor saw %d submissions, want 1", commits.Load())
	}
	if bases := p.Bases(); len(bases) != 1 || bases[0] != b.URL {
		t.Fatalf("pool bases after failover = %v, want just the survivor", bases)
	}
	if p.Epoch() != 2 {
		t.Fatalf("pool epoch = %d, want the adopted 2", p.Epoch())
	}
	// Subsequent submissions go straight to the survivor.
	if _, err := p.Submit(context.Background(), wire.TxnRequest{Class: "X"}); err != nil {
		t.Fatal(err)
	}
	if commits.Load() != 2 {
		t.Fatalf("survivor saw %d submissions after adoption, want 2", commits.Load())
	}
}

// TestPoolFailoverOnTransportError: a dead server (connection refused)
// triggers the same drop-refresh-retry path as a structured refusal.
func TestPoolFailoverOnTransportError(t *testing.T) {
	var commits atomic.Int64
	var survivor *httptest.Server
	survivor = topoStub(t, func(rw http.ResponseWriter, _ *http.Request) {
		commits.Add(1)
		json.NewEncoder(rw).Encode(wire.TxnResult{Class: "X", Committed: true})
	}, func() wire.Stats {
		return wire.Stats{
			TopologyEpoch: 3,
			ActiveSites:   1,
			SiteStatus:    []string{"gone", "active"},
			SiteAddrs:     []string{"", survivor.URL},
		}
	})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	p := client.NewPool([]string{deadURL, survivor.URL}, client.Options{MaxAttempts: 1, Seed: 1})
	res, err := p.Submit(context.Background(), wire.TxnRequest{Class: "X"})
	if err != nil || !res.Committed {
		t.Fatalf("failover submit = (%+v, %v)", res, err)
	}
	if bases := p.Bases(); len(bases) != 1 || bases[0] != survivor.URL {
		t.Fatalf("pool bases = %v, want just the survivor", bases)
	}
	if p.Epoch() != 3 {
		t.Fatalf("pool epoch = %d, want 3", p.Epoch())
	}
}

// TestPoolPinnedNoFailover: a site-pinned submission is the caller's
// placement decision — the pool must surface the refusal rather than
// retry it elsewhere, and must not drop the base.
func TestPoolPinnedNoFailover(t *testing.T) {
	var txns atomic.Int64
	a := topoStub(t, func(rw http.ResponseWriter, req *http.Request) {
		txns.Add(1)
		gone410(rw, req)
	}, func() wire.Stats {
		return wire.Stats{TopologyEpoch: 1, SiteStatus: []string{"active"}}
	})

	p := client.NewPool([]string{a.URL}, client.Options{MaxAttempts: 1, Seed: 1})
	site := 0
	_, err := p.Submit(context.Background(), wire.TxnRequest{Class: "X", Site: &site})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGone || ae.Code != "site_gone" {
		t.Fatalf("pinned submit = %v, want the raw 410 site_gone", err)
	}
	if txns.Load() != 1 {
		t.Fatalf("pinned submit hit the server %d times, want exactly 1", txns.Load())
	}
	if bases := p.Bases(); len(bases) != 1 {
		t.Fatalf("pinned refusal dropped the base: %v", bases)
	}
}

// TestPoolRefreshAdoptsNewerEpochOnly: stale topology reports (an older
// epoch) never shrink the site list; newer ones do.
func TestPoolRefreshAdoptsNewerEpochOnly(t *testing.T) {
	var epoch atomic.Int64
	var a, b *httptest.Server
	stats := func() wire.Stats {
		e := epoch.Load()
		st := wire.Stats{TopologyEpoch: e, ActiveSites: 2,
			SiteStatus: []string{"active", "active"}, SiteAddrs: []string{"", ""}}
		if a != nil {
			st.SiteAddrs = []string{a.URL, b.URL}
		}
		if e >= 5 {
			st.ActiveSites = 1
			st.SiteStatus = []string{"active", "gone"}
		}
		return st
	}
	ok := func(rw http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(rw).Encode(wire.TxnResult{Class: "X", Committed: true})
	}
	a = topoStub(t, ok, stats)
	b = topoStub(t, ok, stats)

	p := client.NewPool([]string{a.URL, b.URL}, client.Options{MaxAttempts: 1, Seed: 1})
	ctx := context.Background()
	epoch.Store(2)
	if err := p.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 2 || len(p.Bases()) != 2 {
		t.Fatalf("after epoch-2 refresh: epoch %d bases %v", p.Epoch(), p.Bases())
	}
	// A stale report (epoch 1) must not regress the view.
	epoch.Store(1)
	if err := p.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 2 || len(p.Bases()) != 2 {
		t.Fatalf("stale refresh regressed the view: epoch %d bases %v", p.Epoch(), p.Bases())
	}
	// A newer report that drains site 1 shrinks the rotation.
	epoch.Store(5)
	if err := p.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 5 || len(p.Bases()) != 1 || p.Bases()[0] != a.URL {
		t.Fatalf("after drain refresh: epoch %d bases %v", p.Epoch(), p.Bases())
	}
}
