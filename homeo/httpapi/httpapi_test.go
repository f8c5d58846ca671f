package httpapi_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/httpapi"
	"repro/homeo/wire"
	"repro/internal/micro"
)

const depositSrc = `
transaction Deposit(n) {
	v := read(acct);
	write(acct = v + n)
}`

func newServer(t *testing.T, opts homeo.Options) (*homeo.Cluster, *httpapi.Handler, *httptest.Server, *client.Client) {
	t.Helper()
	opts.Runtime = homeo.RuntimeLive
	if opts.RTT == 0 {
		opts.RTT = 2 * time.Millisecond
	}
	if opts.LocalExecTime == 0 {
		opts.LocalExecTime = 100 * time.Microsecond
	}
	if opts.Seed == 0 {
		opts.Seed = 4
	}
	c, err := homeo.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := httpapi.NewHandler(c)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	cl := client.New(srv.URL, client.Options{Seed: 1})
	return c, h, srv, cl
}

// TestRegisterAndSubmitOverHTTP is the wire-protocol acceptance path: a
// class never seen at compile time registered over /v1/classes, driven
// under /v1/txn through the Go client, replay-checked.
func TestRegisterAndSubmitOverHTTP(t *testing.T) {
	c, _, _, cl := newServer(t, homeo.Options{EnableLog: true})
	ctx := context.Background()

	info, err := cl.RegisterClass(ctx, wire.ClassRequest{
		L:       depositSrc,
		Bounds:  map[string][2]int64{"n": {1, 5}},
		Initial: map[string]int64{"acct": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "Deposit" || len(info.Params) != 1 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Treaties) != 2 {
		t.Fatalf("treaties = %v", info.Treaties)
	}

	for i := 0; i < 10; i++ {
		res, err := cl.Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{2}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed || res.Error != nil {
			t.Fatalf("res = %+v", res)
		}
	}
	list, err := cl.ListClasses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "Deposit" {
		t.Fatalf("list = %+v", list)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 10 || st.Workload != "custom" {
		t.Fatalf("stats = %+v", st)
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
}

// TestSQLClassOverHTTP registers a SQL class with preloaded rows and
// checks SELECT results come back in the log.
func TestSQLClassOverHTTP(t *testing.T) {
	_, _, _, cl := newServer(t, homeo.Options{})
	ctx := context.Background()
	_, err := cl.RegisterClass(ctx, wire.ClassRequest{
		Name: "Restock",
		SQL: `
CREATE TABLE inv (item, qty) SIZE 4
UPDATE inv SET qty = qty + @d WHERE item = @k
SELECT SUM(qty) FROM inv WHERE item = @k`,
		Bounds: map[string][2]int64{"d": {1, 3}, "k": {1, 4}},
		Rows:   map[string][][]int64{"inv": {{1, 10}, {2, 20}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Submit(ctx, wire.TxnRequest{Class: "Restock", Args: []int64{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log) != 1 || res.Log[0] != 13 {
		t.Fatalf("log = %v, want [13]", res.Log)
	}
}

// TestBatchSubmission: POST /v1/txn takes one transaction per request. A
// body with a batch member is a 400 that says so and commits nothing — on a
// cluster with a base workload, where ignoring the member would run the
// empty request, a mix draw that commits.
func TestBatchSubmission(t *testing.T) {
	w, err := micro.New(micro.Config{Items: 20, Refill: 100, NSites: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srv, cl := newServer(t, homeo.Options{Workload: w})
	for _, body := range []string{
		`{"batch":[{"site":0},{"site":1}]}`,
		`{"site":0,"batch":[]}`,
		`{"Batch":null}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/txn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope wire.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != "bad_request" ||
			!strings.Contains(envelope.Error.Message, "one POST /v1/txn per transaction") {
			t.Errorf("%s: %d %+v (%v), want 400 bad_request asking for one POST per transaction",
				body, resp.StatusCode, envelope.Error, err)
		}
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 0 || st.StoreCluster.Commits != 0 {
		t.Fatalf("refused batches committed %d transactions (%d store commits)", st.Committed, st.StoreCluster.Commits)
	}
}

// TestMixDraw: a base-workload cluster serves class-less submissions.
func TestMixDraw(t *testing.T) {
	w, err := micro.New(micro.Config{Items: 20, Refill: 100, NSites: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, cl := newServer(t, homeo.Options{Workload: w})
	site := 1
	res, err := cl.Submit(context.Background(), wire.TxnRequest{Site: &site})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != "Order" || !res.Committed || res.Site != 1 {
		t.Fatalf("res = %+v", res)
	}
}

// TestMixDrawWithoutWorkload: a class-less submission against a cluster
// with no base workload and no classes is a structured error, not a
// handler panic.
func TestMixDrawWithoutWorkload(t *testing.T) {
	_, _, _, cl := newServer(t, homeo.Options{})
	res, err := cl.Submit(context.Background(), wire.TxnRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed || res.Error == nil || res.Error.Code != "aborted" {
		t.Fatalf("res = %+v", res)
	}
}

// TestStatusCodes walks the structured-error matrix.
func TestStatusCodes(t *testing.T) {
	_, _, srv, cl := newServer(t, homeo.Options{})
	ctx := context.Background()
	if _, err := cl.RegisterClass(ctx, wire.ClassRequest{L: depositSrc}); err != nil {
		t.Fatal(err)
	}

	get := func(method, path, body string) (int, wire.ErrorResponse) {
		var req *http.Request
		var err error
		if body == "" {
			req, err = http.NewRequest(method, srv.URL+path, nil)
		} else {
			req, err = http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var envelope wire.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&envelope)
		return resp.StatusCode, envelope
	}

	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"GET", "/v1/txn", "", 405, "method_not_allowed"},
		{"POST", "/v1/stats", "", 405, "method_not_allowed"},
		{"DELETE", "/v1/classes", "", 405, "method_not_allowed"},
		{"POST", "/v1/txn", "{bad json", 400, "bad_request"},
		{"POST", "/v1/txn", `{"class":"Nope"}`, 404, "not_found"},
		{"POST", "/v1/txn", `{"class":"Deposit","args":[1,2]}`, 400, "bad_request"},
		{"POST", "/v1/txn", `{"site":9}`, 400, "bad_request"},
		{"POST", "/v1/classes", `{"l":"` + `transaction Deposit(n) { v := read(acct); write(acct = v + n) }` + `"}`, 409, "conflict"},
		{"POST", "/v1/classes", `{"l":"transaction Bad( {"}`, 400, "bad_request"},
		{"POST", "/v1/classes", `{"l":"transaction Big(i) { array a(100000000); write(x = i) }"}`, 400, "bad_request"},
		{"POST", "/v1/txn", `{"class":"Deposit","args":[1]} trailing`, 400, "bad_request"},
		{"POST", "/v1/txn", `{"class":"Deposit","args":[1.5]}`, 400, "bad_request"},
		{"POST", "/v1/topology/migrate", `{"unit":0,"to":1}`, 404, ""}, // no such endpoint
	}
	for _, tc := range cases {
		status, envelope := get(tc.method, tc.path, tc.body)
		if status != tc.status || envelope.Error.Code != tc.code {
			t.Errorf("%s %s %q: got %d/%q, want %d/%q",
				tc.method, tc.path, tc.body, status, envelope.Error.Code, tc.status, tc.code)
		}
	}
}

// TestBackpressure429: queue overflow answers 429 with code "dropped" and
// the client's retry budget surfaces it as a retryable APIError.
func TestBackpressure429(t *testing.T) {
	_, _, srv, _ := newServer(t, homeo.Options{
		MaxInflight:   1,
		LocalExecTime: 2 * time.Second,
	})
	ctx := context.Background()
	noRetry := client.New(srv.URL, client.Options{MaxAttempts: 1, Seed: 1})
	if _, err := noRetry.RegisterClass(ctx, wire.ClassRequest{L: depositSrc}); err != nil {
		t.Fatal(err)
	}
	// Occupy the single slot with a slow transaction.
	go noRetry.Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{1}})
	time.Sleep(300 * time.Millisecond)

	_, err := noRetry.Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{1}})
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if ae.Status != http.StatusTooManyRequests || ae.Code != "dropped" || !ae.Retryable() {
		t.Fatalf("APIError = %+v", ae)
	}
}

// TestDraining503: after Drain, mutation endpoints refuse with 503 while
// stats and health stay readable.
func TestDraining503(t *testing.T) {
	_, h, srv, cl := newServer(t, homeo.Options{})
	ctx := context.Background()
	if _, err := cl.RegisterClass(ctx, wire.ClassRequest{L: depositSrc}); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	noRetry := client.New(srv.URL, client.Options{MaxAttempts: 1, Seed: 1})
	_, err := noRetry.Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{1}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != "draining" {
		t.Fatalf("submit err = %v", err)
	}
	if _, err := noRetry.RegisterClass(ctx, wire.ClassRequest{L: "transaction X() { write(x = 1) }"}); err == nil {
		t.Fatal("register accepted while draining")
	}
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatalf("stats unavailable while draining: %v", err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]string
	json.NewDecoder(resp.Body).Decode(&health)
	if health["status"] != "draining" {
		t.Fatalf("health = %v", health)
	}
}

// TestTimeoutInBody: a server-side per-call timeout is reported in the
// response body with code "timeout" (HTTP 200 — the submission executed).
func TestTimeoutInBody(t *testing.T) {
	_, _, _, cl := newServer(t, homeo.Options{LocalExecTime: 500 * time.Millisecond})
	ctx := context.Background()
	if _, err := cl.RegisterClass(ctx, wire.ClassRequest{L: depositSrc}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{1}, TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed || res.Error == nil || res.Error.Code != "timeout" {
		t.Fatalf("res = %+v", res)
	}
}

// TestSSEStream: GET /v1/stats has no stream form. A request that asks for
// Server-Sent Events, by query or by Accept header, gets the JSON snapshot
// and the response ends; a client polls for the next one.
func TestSSEStream(t *testing.T) {
	_, _, srv, _ := newServer(t, homeo.Options{})
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats?stream=1&interval_ms=100", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st wire.Stats
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&st); err != nil || resp.StatusCode != http.StatusOK ||
		resp.Header.Get("Content-Type") != "application/json" || st.Sites != 2 {
		t.Fatalf("%d %s: %+v (%v), want the 200 JSON snapshot", resp.StatusCode, resp.Header.Get("Content-Type"), st, err)
	}
	if dec.More() {
		t.Fatal("the reply goes on after the snapshot")
	}
}

// lateHandler serves through a handler set after its server started, so
// that every process of a fabric can be told every server's URL.
type lateHandler struct {
	h atomic.Pointer[httpapi.Handler]
}

func (l *lateHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	l.h.Load().ServeHTTP(rw, req)
}

// newFabric serves an n-process cluster on the live runtime: n Clusters,
// one site each, over the HTTP site fabric on loopback, and a client of
// each.
func newFabric(t *testing.T, n int) ([]*homeo.Cluster, []*client.Client) {
	t.Helper()
	late := make([]lateHandler, n)
	peers := make([]string, n)
	for k := range peers {
		srv := httptest.NewServer(&late[k])
		t.Cleanup(srv.Close)
		peers[k] = srv.URL
	}
	cs := make([]*homeo.Cluster, n)
	cls := make([]*client.Client, n)
	for k := range cs {
		c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeLive, LocalExecTime: 100 * time.Microsecond, Seed: 4,
			EnableLog: true, Fabric: &homeo.FabricOptions{Site: k, Peers: peers}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		late[k].h.Store(httpapi.NewHandler(c))
		cs[k], cls[k] = c, client.New(peers[k], client.Options{Seed: 1})
	}
	return cs, cls
}

// TestTopologyEndpointsOverHTTP drives the elastic-topology surface over
// the wire, between the two processes of a cluster: the membership view, a
// drain (fence + absorb + epoch bump at both), the site_gone refusal for
// submissions pinned to the drained slot, and the refusals of a drain of
// another process's site, of a second drain, and of any drain on a
// single-process cluster, which has no membership to change.
func TestTopologyEndpointsOverHTTP(t *testing.T) {
	_, cls := newFabric(t, 2)
	ctx := context.Background()
	for _, cl := range cls {
		if _, err := cl.RegisterClass(ctx, wire.ClassRequest{
			L:       depositSrc,
			Bounds:  map[string][2]int64{"n": {1, 5}},
			Initial: map[string]int64{"acct": 40},
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := cl.Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{1}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	topo, err := cls[0].Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Epoch != 0 || topo.Sites != 2 || topo.ActiveSites != 2 || topo.SelfSite != 0 {
		t.Fatalf("fresh topology = %+v", topo)
	}
	for k, s := range topo.SiteStatus {
		if s != "active" {
			t.Fatalf("site %d status = %q before any membership change", k, s)
		}
	}

	if _, err := cls[0].DrainSite(ctx, 1); homeoCode(err) != "conflict" {
		t.Fatalf("process 0 draining site 1: %v, want conflict", err)
	}
	ack, err := cls[1].DrainSite(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Sites != 2 || ack.ActiveSites != 1 || ack.Epoch == 0 {
		t.Fatalf("drain ack = %+v", ack)
	}
	topo, err = cls[0].Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Epoch == 0 || topo.ActiveSites != 1 || topo.SiteStatus[1] != "gone" {
		t.Fatalf("post-drain topology at process 0 = %+v", topo)
	}

	// A submission pinned to the drained slot refuses with HTTP 410 and
	// the structured site_gone code (the pool's failover cue).
	gone := 1
	_, err = cls[1].Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{1}, Site: &gone})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGone || ae.Code != "site_gone" {
		t.Fatalf("pinned submit to drained site: %v, want 410 site_gone", err)
	}
	// The surviving process keeps committing.
	res, err := cls[0].Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{1}})
	if err != nil || !res.Committed || res.Site != 0 {
		t.Fatalf("post-drain submit = (%+v, %v)", res, err)
	}
	// Draining an already-gone slot is a conflict, not a crash.
	if _, err := cls[1].DrainSite(ctx, 1); homeoCode(err) != "conflict" {
		t.Fatalf("double drain: %v, want conflict", err)
	}

	// Stats carry the same topology fields the pool refreshes from.
	st, err := cls[0].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TopologyEpoch != topo.Epoch || st.ActiveSites != 1 || len(st.SiteStatus) != 2 || st.SiteStatus[1] != "gone" {
		t.Fatalf("stats topology fields = epoch %d active %d status %v",
			st.TopologyEpoch, st.ActiveSites, st.SiteStatus)
	}

	// A single-process cluster holds every site: nothing to drain.
	_, _, _, single := newServer(t, homeo.Options{})
	_, err = single.DrainSite(ctx, 1)
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict || !strings.Contains(ae.Message, "Options.Fabric") {
		t.Fatalf("drain on a single-process cluster: %v, want 409 naming Options.Fabric", err)
	}
}

// homeoCode extracts the structured code from a client APIError ("" for
// nil or non-API errors).
func homeoCode(err error) string {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// TestClientRetriesWithBackoff: 429s are retried with jittered backoff
// until the server yields.
func TestClientRetriesWithBackoff(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if calls.Add(1) <= 2 {
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(rw).Encode(wire.ErrorResponse{Error: wire.Error{Code: "dropped", Message: "full"}})
			return
		}
		json.NewEncoder(rw).Encode(wire.TxnResult{Class: "X", Committed: true})
	}))
	defer srv.Close()
	cl := client.New(srv.URL, client.Options{MaxAttempts: 4, RetryBase: time.Millisecond, Seed: 1})
	res, err := cl.Submit(context.Background(), wire.TxnRequest{Class: "X"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || calls.Load() != 3 {
		t.Fatalf("res = %+v after %d calls", res, calls.Load())
	}

	// A non-retryable failure is returned immediately.
	calls.Store(100)
	srv2 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		calls.Add(1)
		rw.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(rw).Encode(wire.ErrorResponse{Error: wire.Error{Code: "bad_request", Message: "no"}})
	}))
	defer srv2.Close()
	cl2 := client.New(srv2.URL, client.Options{MaxAttempts: 4, RetryBase: time.Millisecond, Seed: 1})
	start := calls.Load()
	if _, err := cl2.Submit(context.Background(), wire.TxnRequest{Class: "X"}); err == nil {
		t.Fatal("bad_request not surfaced")
	}
	if calls.Load()-start != 1 {
		t.Fatalf("bad_request retried %d times", calls.Load()-start)
	}
}

// TestRetryAfterHeader: 429 and 503 responses carry a Retry-After hint
// and the client surfaces it on the APIError.
func TestRetryAfterHeader(t *testing.T) {
	_, h, srv, cl := newServer(t, homeo.Options{})
	ctx := context.Background()
	if _, err := cl.RegisterClass(ctx, wire.ClassRequest{L: depositSrc}); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	resp, err := http.Post(srv.URL+"/v1/txn", "application/json",
		strings.NewReader(`{"class":"Deposit","args":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	noRetry := client.New(srv.URL, client.Options{MaxAttempts: 1, Seed: 1})
	_, err = noRetry.Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{1}})
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if ae.RetryAfter != time.Second {
		t.Fatalf("APIError.RetryAfter = %v, want 1s", ae.RetryAfter)
	}
}

// TestClientHonorsRetryAfter: the server's Retry-After hint replaces the
// computed backoff between retries.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var gaps []time.Duration
	var last time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		now := time.Now()
		if !last.IsZero() {
			gaps = append(gaps, now.Sub(last))
		}
		last = now
		if calls.Add(1) <= 2 {
			rw.Header().Set("Retry-After", "1")
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(rw).Encode(wire.ErrorResponse{Error: wire.Error{Code: "dropped", Message: "full"}})
			return
		}
		json.NewEncoder(rw).Encode(wire.TxnResult{Class: "X", Committed: true})
	}))
	defer srv.Close()
	// RetryBase 1ms would normally retry almost immediately; the 1s
	// Retry-After must dominate.
	cl := client.New(srv.URL, client.Options{MaxAttempts: 4, RetryBase: time.Millisecond, Seed: 1})
	start := time.Now()
	res, err := cl.Submit(context.Background(), wire.TxnRequest{Class: "X"})
	if err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Fatalf("two hinted retries finished in %v, want >= 2s (Retry-After ignored?)", elapsed)
	}
	for _, g := range gaps {
		if g < time.Second {
			t.Fatalf("retry gap %v < hinted 1s", g)
		}
	}
}

// TestBatchClassRegistration: the POST /v1/classes batch form registers
// several classes atomically and reports the cache counters in stats.
func TestBatchClassRegistration(t *testing.T) {
	_, _, _, cl := newServer(t, homeo.Options{})
	ctx := context.Background()

	specs := make([]wire.ClassRequest, 4)
	for i := range specs {
		specs[i] = wire.ClassRequest{
			L: strings.ReplaceAll(`transaction WdIDX(n) {
				v := read(itemIDX);
				if (v - n > 0) then write(itemIDX = v - n) else skip
			}`, "IDX", string(rune('0'+i))),
			Bounds:  map[string][2]int64{"n": {1, 5}},
			Initial: map[string]int64{"item" + string(rune('0'+i)): 500},
		}
	}
	infos, err := cl.RegisterClassBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("registered %d classes, want 4", len(infos))
	}
	for i, info := range infos {
		if want := "Wd" + string(rune('0'+i)); info.Name != want {
			t.Fatalf("class %d named %q, want %q", i, info.Name, want)
		}
	}
	res, err := cl.Submit(ctx, wire.TxnRequest{Class: "Wd2", Args: []int64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("submit through batch-registered class: %+v", res)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Four isomorphic classes: one scratch analysis, three cache hits.
	if st.AnalysisCacheMisses != 1 || st.AnalysisCacheHits != 3 {
		t.Fatalf("analysis cache hits=%d misses=%d, want 3/1",
			st.AnalysisCacheHits, st.AnalysisCacheMisses)
	}

	// A batch with one broken class registers nothing.
	bad := []wire.ClassRequest{
		{L: depositSrc, Initial: map[string]int64{"acct": 10}},
		{L: "transaction Broken(n) { v := read("},
	}
	if _, err := cl.RegisterClassBatch(ctx, bad); err == nil {
		t.Fatal("broken batch registered")
	}
	classes, err := cl.ListClasses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 4 {
		t.Fatalf("classes after failed batch = %d, want the original 4", len(classes))
	}
}
