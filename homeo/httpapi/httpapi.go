// Package httpapi serves the versioned /v1 wire protocol (see homeo/wire)
// over an embeddable homeo.Cluster. cmd/homeostasis-serve mounts it; any
// application embedding a Cluster can too:
//
//	h := httpapi.NewHandler(cluster)
//	http.ListenAndServe(":8080", h)
//
// Transaction classes never seen at compile time are registered over
// POST /v1/classes (the server parses, analyzes, and generates treaties
// online), invoked over POST /v1/txn (one transaction per request, with
// 429 backpressure on queue overflow), and observed over GET /v1/stats
// (a snapshot; poll it).
//
// A transaction over POST /v1/txn is the path every commit takes, and a
// single class over POST /v1/classes the path every registration takes,
// so these two are served without encoding/json and without building
// anything per request that the request does not hand on: the body is
// read into a pooled buffer, scanned by the homeo/wire codec into a pooled
// request, and the reply is appended to the same buffer (see serveOne and
// registerOne). Class batches and every other endpoint go through
// encoding/json.
package httpapi

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/homeo"
	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/httpcall"
)

// Handler serves the /v1 protocol over a cluster.
type Handler struct {
	c        *homeo.Cluster
	mux      *http.ServeMux
	draining atomic.Bool
}

// NewHandler mounts the /v1 protocol over the cluster. On a
// multi-process cluster (homeo.Options.Fabric) the site fabric's peer
// protocol is additionally served under /v1/peer/, including the
// read-only introspection endpoints (/v1/peer/log, /v1/peer/db); all of
// it requires the configured peer token — the log and partition expose
// transaction history and database values, the same trust domain as the
// mutations.
func NewHandler(c *homeo.Cluster) *Handler {
	h := &Handler{c: c, mux: http.NewServeMux()}
	h.mux.HandleFunc("/v1/classes", h.handleClasses)
	h.mux.HandleFunc("/v1/txn", h.handleTxn)
	h.mux.HandleFunc("/v1/stats", h.handleStats)
	h.mux.HandleFunc("/v1/topology", h.handleTopology)
	h.mux.HandleFunc("/v1/topology/drain", h.handleTopologyDrain)
	h.mux.HandleFunc("/healthz", h.handleHealthz)
	if peer := c.PeerHandler(); peer != nil {
		// The peer handler owns the full /v1/peer/* paths; the exact
		// /v1/peer/log and /v1/peer/db patterns below still win.
		h.mux.Handle("/v1/peer/", peer)
		h.mux.HandleFunc("/v1/peer/log", h.handlePeerLog)
		h.mux.HandleFunc("/v1/peer/db", h.handlePeerDB)
	}
	return h
}

// peerAuthorized enforces the peer token on the introspection endpoints
// (mirroring the fabric handler's check on the mutation endpoints).
func (h *Handler) peerAuthorized(rw http.ResponseWriter, req *http.Request) bool {
	tok := h.c.PeerToken()
	if tok == "" {
		return true
	}
	if subtle.ConstantTimeCompare([]byte(req.Header.Get(fabric.PeerTokenHeader)), []byte(tok)) != 1 {
		writeError(rw, http.StatusUnauthorized, "unauthorized", "missing or wrong peer token")
		return false
	}
	return true
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	h.mux.ServeHTTP(rw, req)
}

// Drain flips the handler into draining mode: /v1/classes and /v1/txn
// answer 503 while stats and health stay readable. The serving binary
// calls it on SIGINT/SIGTERM before draining the cluster.
func (h *Handler) Drain() { h.draining.Store(true) }

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	// The status line is already written; a mid-body failure cannot be
	// reported to the client anyway.
	_ = enc.Encode(v)
}

// retryAfterSeconds is the backpressure hint attached to 429/503
// responses: clients should wait this long before retrying instead of
// falling back to computed backoff (homeo/client honors it).
const retryAfterSeconds = 1

func writeError(rw http.ResponseWriter, status int, code, format string, args ...any) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		rw.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(rw, status, wire.ErrorResponse{Error: wire.Error{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// wireStats converts an embeddable-API snapshot into the wire form
// (kept here so package wire stays dependency-free).
func wireStats(s homeo.Stats) wire.Stats {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := wire.Stats{
		Workload:            s.Workload,
		Mode:                s.Mode,
		Alloc:               s.Alloc,
		Runtime:             s.Runtime,
		Sites:               s.Sites,
		Classes:             s.Classes,
		UptimeSec:           s.Uptime.Seconds(),
		Committed:           s.Committed,
		Synced:              s.Synced,
		ConflictAborts:      s.ConflictAborts,
		Dropped:             s.Dropped,
		Livelocked:          s.Livelocked,
		TreatyGenFailures:   s.TreatyGenFailures,
		CoWinnerCommits:     s.CoWinnerCommits,
		SyncRatioPct:        s.SyncRatioPct,
		ThroughputTxnS:      s.Throughput,
		LatencyP50MS:        ms(s.LatencyP50),
		LatencyP90MS:        ms(s.LatencyP90),
		LatencyP99MS:        ms(s.LatencyP99),
		LatencyMaxMS:        ms(s.LatencyMax),
		LatencyMeanMS:       ms(s.LatencyMean),
		Negotiations:        s.Negotiations,
		NegLatencyP50MS:     ms(s.NegotiationP50),
		NegLatencyP99MS:     ms(s.NegotiationP99),
		FabricErrors:        s.FabricErrors,
		RoundsAdopted:       s.RoundsAdopted,
		RoundsAborted:       s.RoundsAborted,
		RecoveredWALRecords: s.RecoveredWALRecords,
		AnalysisCacheHits:   s.AnalysisCacheHits,
		AnalysisCacheMisses: s.AnalysisCacheMisses,
		SolverWarmStarts:    s.SolverWarmStarts,
		SolverFallbacks:     s.SolverFallbacks,
		StoreCluster:        wire.StoreStats(s.Store),
		TopologyEpoch:       s.TopologyEpoch,
		ActiveSites:         s.ActiveSites,
		SiteStatus:          s.SiteStatus,
		SiteAddrs:           s.SiteAddrs,
	}
	for _, p := range s.PerSite {
		out.StorePerSite = append(out.StorePerSite, wire.StoreStats(p))
	}
	return out
}

// Request bodies are bounded: a transaction is a class name and a few
// integers, a registration carries source text and preloaded rows.
const (
	maxTxnBody     = 1 << 20
	maxClassesBody = 16 << 20
)

// refuseTooLarge answers 413 when err says a body outgrew its bound, and
// reports whether it did.
func refuseTooLarge(rw http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		return false
	}
	writeError(rw, http.StatusRequestEntityTooLarge, "too_large",
		"request body exceeds %d bytes", tooLarge.Limit)
	return true
}

// decodeBody decodes a JSON body, tolerating an empty one.
func decodeBody(req *http.Request, v any) error {
	if req.Body == nil {
		return nil
	}
	dec := json.NewDecoder(req.Body)
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// handlePeerLog serves the process's commit log (Lamport-clocked wire
// entries) for the multi-process driver's merged replay check.
func (h *Handler) handlePeerLog(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(rw, http.StatusMethodNotAllowed, "method_not_allowed", "%s: GET only", req.URL.Path)
		return
	}
	if !h.peerAuthorized(rw, req) {
		return
	}
	site := h.c.SelfSite()
	if site < 0 {
		site = 0
	}
	entries := h.c.WireLog()
	if entries == nil {
		entries = []wire.LogEntry{}
	}
	writeJSON(rw, http.StatusOK, wire.LogResponse{Site: site, Entries: entries})
}

// handlePeerDB serves the process's authoritative database partition.
func (h *Handler) handlePeerDB(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(rw, http.StatusMethodNotAllowed, "method_not_allowed", "%s: GET only", req.URL.Path)
		return
	}
	if !h.peerAuthorized(rw, req) {
		return
	}
	writeJSON(rw, http.StatusOK, h.c.Partition())
}

// handleTopology serves the process's membership view (GET /v1/topology).
// Read-only, but it exposes the peer addresses — same trust domain as the
// peer introspection endpoints, so the peer token applies.
func (h *Handler) handleTopology(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(rw, http.StatusMethodNotAllowed, "method_not_allowed", "%s: GET only", req.URL.Path)
		return
	}
	if !h.peerAuthorized(rw, req) {
		return
	}
	writeJSON(rw, http.StatusOK, wire.TopologyResponse{
		Epoch:       h.c.TopologyEpoch(),
		Sites:       h.c.Sites(),
		ActiveSites: h.c.ActiveSites(),
		SiteStatus:  h.c.SiteStatuses(),
		SiteAddrs:   h.c.SiteAddrs(),
		SelfSite:    h.c.SelfSite(),
	})
}

// handleTopologyDrain triggers a drain of this process's site (POST
// /v1/topology/drain). Unlike the fabric-internal /v1/peer/drain — which
// merely records a completed drain announced by a peer — this runs the
// full orchestration: fence, absorb every unit's deltas into the
// replicated base, broadcast the membership change. Peer-token guarded:
// it is a cluster mutation.
func (h *Handler) handleTopologyDrain(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "method_not_allowed", "%s: POST only", req.URL.Path)
		return
	}
	if !h.peerAuthorized(rw, req) {
		return
	}
	var body wire.DrainRequest
	if err := decodeBody(req, &body); err != nil {
		writeError(rw, http.StatusBadRequest, "bad_request", "request body: %v", err)
		return
	}
	if err := h.c.Drain(body.Site); err != nil {
		writeError(rw, http.StatusConflict, "conflict", "drain site %d: %v", body.Site, err)
		return
	}
	writeJSON(rw, http.StatusOK, wire.TopologyAck{
		Epoch:       h.c.TopologyEpoch(),
		Sites:       h.c.Sites(),
		ActiveSites: h.c.ActiveSites(),
	})
}

func (h *Handler) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if h.draining.Load() || h.c.Draining() {
		status = "draining"
	}
	writeJSON(rw, http.StatusOK, map[string]string{"status": status})
}

// classInfo renders a registered class.
func classInfo(t *homeo.TxnClass) wire.ClassInfo {
	pinned, why := t.Pinned()
	return wire.ClassInfo{
		Name:      t.Name(),
		Params:    t.Params(),
		Objects:   t.Objects(),
		Pinned:    pinned,
		PinReason: why,
		Treaties:  t.Treaties(),
	}
}

func (h *Handler) handleClasses(rw http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		resp := wire.ClassListResponse{Classes: []wire.ClassInfo{}}
		for _, name := range h.c.Classes() {
			if t := h.c.Class(name); t != nil {
				resp.Classes = append(resp.Classes, classInfo(t))
			}
		}
		writeJSON(rw, http.StatusOK, resp)
	case http.MethodPost:
		if h.draining.Load() || h.c.Draining() {
			writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
			return
		}
		s := classPool.Get().(*classScratch)
		defer s.release()
		var err error
		if s.buf, err = httpcall.ReadRequest(rw, req, s.buf, maxClassesBody); err == nil {
			s.env.Bounds, s.env.Initial = s.bounds, s.initial
			err = wire.ParseClassRequest(s.buf, &s.env)
		}
		if err != nil {
			if !refuseTooLarge(rw, err) {
				writeError(rw, http.StatusBadRequest, "bad_request", "request body: %v", err)
			}
			return
		}
		if len(s.env.Batch) == 0 {
			h.registerOne(rw, s)
			return
		}
		h.registerBatch(rw, s.env.Batch)
	default:
		writeError(rw, http.StatusMethodNotAllowed, "method_not_allowed", "%s: GET or POST only", req.URL.Path)
	}
}

// classScratch is what one POST /v1/classes needs from reading the body
// to writing the reply, pooled like txnScratch: the body and then the
// reply of a single registration share buf, and the request is decoded
// over env, whose Bounds and Initial are bounds and initial emptied.
// Nothing handed to the cluster refers to a scratch after the handler
// returns: Cluster.Register copies the maps of a spec, and the strings are
// the decoder's own.
type classScratch struct {
	buf     []byte
	env     wire.ClassEnvelope
	bounds  map[string][2]int64
	initial map[string]int64
}

var classPool = sync.Pool{New: func() any {
	return &classScratch{buf: make([]byte, 0, 1024), bounds: map[string][2]int64{}, initial: map[string]int64{}}
}}

// release returns the scratch to the pool, unless a large body grew it.
//
//homeo:release sync.Pool
func (s *classScratch) release() {
	if cap(s.buf) > wire.MaxPooledBuf {
		return
	}
	s.env = wire.ClassEnvelope{}
	clear(s.bounds)
	clear(s.initial)
	classPool.Put(s)
}

// taken refuses a request for a name already registered, and reports
// whether it did.
func (h *Handler) taken(rw http.ResponseWriter, r *wire.ClassRequest) bool {
	if r.Name == "" || h.c.Class(r.Name) == nil {
		return false
	}
	writeError(rw, http.StatusConflict, "conflict", "class %q already registered", r.Name)
	return true
}

// registerError answers a registration the cluster refused.
func registerError(rw http.ResponseWriter, err error) {
	status, code := http.StatusBadRequest, "bad_request"
	switch {
	case errors.Is(err, homeo.ErrDropped):
		status, code = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, homeo.ErrDuplicateClass):
		// L classes named by their source can collide too.
		status, code = http.StatusConflict, "conflict"
	}
	writeError(rw, status, code, "%v", err)
}

// registerOne is the registration path: one decoded class in s.env, one
// reply, the bytes writeJSON would write for it.
func (h *Handler) registerOne(rw http.ResponseWriter, s *classScratch) {
	if h.taken(rw, &s.env.ClassRequest) {
		return
	}
	t, err := h.c.Register(homeo.ClassSpec(s.env.ClassRequest))
	if err != nil {
		registerError(rw, err)
		return
	}
	info := classInfo(t)
	s.buf = wire.AppendClassInfo(s.buf[:0], &info)
	rw.Header()["Content-Type"] = jsonContentType
	rw.WriteHeader(http.StatusCreated)
	// The status line is already written; a mid-body failure cannot be
	// reported to the client anyway.
	_, _ = rw.Write(s.buf)
}

// registerBatch registers a batch atomically and lists it in request
// order.
func (h *Handler) registerBatch(rw http.ResponseWriter, batch []wire.ClassRequest) {
	specs := make([]homeo.ClassSpec, len(batch))
	for i := range batch {
		if h.taken(rw, &batch[i]) {
			return
		}
		specs[i] = homeo.ClassSpec(batch[i])
	}
	ts, err := h.c.RegisterBatch(specs)
	if err != nil {
		registerError(rw, err)
		return
	}
	resp := wire.ClassBatchResponse{Classes: make([]wire.ClassInfo, len(ts))}
	for i, t := range ts {
		resp.Classes[i] = classInfo(t)
	}
	writeJSON(rw, http.StatusCreated, resp)
}

// txnScratch is everything one POST /v1/txn needs from reading the body
// to writing the reply. Scratches are pooled, so a single transaction
// allocates nothing here: the body and then the reply share buf, and the
// request is decoded over env, whose Args and Site point into args and
// site. Nothing handed to the engine refers to a scratch after the
// handler returns — Session.Submit copies the arguments it keeps.
type txnScratch struct {
	buf  []byte
	env  wire.TxnEnvelope
	args []int64
	site int
}

var txnPool = sync.Pool{New: func() any { return &txnScratch{buf: make([]byte, 0, 512)} }}

// release returns the scratch to the pool, unless a large body grew it.
//
//homeo:release sync.Pool
func (s *txnScratch) release() {
	if cap(s.buf) > wire.MaxPooledBuf {
		return
	}
	if s.env.Args != nil {
		s.args = s.env.Args[:0] // grown by the decoder: keep the larger one
	}
	txnPool.Put(s)
}

// jsonContentType is the one Content-Type value every reply carries,
// shared so that setting it costs no allocation.
var jsonContentType = []string{"application/json"}

// implicitLength is the reply size below which net/http sets
// Content-Length itself (a reply written whole that fits its 2 KiB
// buffer); from there on the handler sets it, so no reply is chunked.
const implicitLength = 2048

// reply writes res as the 200 reply of a single transaction: compact
// JSON, written whole, with Content-Length.
//
//homeo:hotpath
func (s *txnScratch) reply(rw http.ResponseWriter, res *wire.TxnResult) {
	s.buf = wire.AppendTxnResult(s.buf[:0], res)
	hdr := rw.Header()
	hdr["Content-Type"] = jsonContentType
	if len(s.buf) >= implicitLength {
		hdr["Content-Length"] = []string{strconv.Itoa(len(s.buf))}
	}
	// The status line is already written; a mid-body failure cannot be
	// reported to the client anyway.
	_, _ = rw.Write(s.buf)
}

// fail fills out with a refusal or failure of body. Cold: every caller is
// on a path that has already lost the transaction.
func fail(out *wire.TxnResult, body *wire.TxnRequest, code, format string, args ...any) {
	if out.Class == "" {
		out.Class = body.Class
	}
	if out.Args == nil {
		out.Args = body.Args
	}
	out.Error = &wire.Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// submitOne runs one TxnRequest to its outcome in out.
//
//homeo:hotpath
func (h *Handler) submitOne(ctx context.Context, body *wire.TxnRequest, out *wire.TxnResult) {
	*out = wire.TxnResult{}
	sess := h.c.Session()
	if body.Site != nil {
		var err error
		if sess, err = h.c.SessionAt(*body.Site); err != nil {
			fail(out, body, "bad_request", "%v", err)
			return
		}
	}
	if body.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	var (
		res homeo.Result
		err error
	)
	if body.Class == "" {
		res, err = sess.SubmitMix(ctx)
	} else {
		t := h.c.Class(body.Class)
		if t == nil {
			fail(out, body, "not_found", "class %q is not registered", body.Class)
			return
		}
		if want := t.Arity(); want != len(body.Args) {
			fail(out, body, "bad_request", "class %s expects %d args %v, got %d", body.Class, want, t.Params(), len(body.Args))
			return
		}
		res, err = sess.Submit(ctx, t, body.Args...)
	}
	out.Class = res.Class
	out.Args = res.Args
	out.Site = res.Site
	out.Committed = res.Committed
	out.Synced = res.Synced
	out.LatencyMS = float64(res.Latency) / float64(time.Millisecond)
	out.Log = res.Log
	if err != nil {
		fail(out, body, homeo.ErrorCode(err), "%v", err)
	}
}

func (h *Handler) handleTxn(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "method_not_allowed", "%s: POST only", req.URL.Path)
		return
	}
	if h.draining.Load() || h.c.Draining() {
		writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	s := txnPool.Get().(*txnScratch)
	defer s.release()
	var err error
	if s.buf, err = httpcall.ReadRequest(rw, req, s.buf, maxTxnBody); err == nil {
		s.env.Args, s.env.Site = s.args, &s.site
		err = wire.ParseTxnRequest(s.buf, &s.env)
	}
	if err != nil {
		if !refuseTooLarge(rw, err) {
			writeError(rw, http.StatusBadRequest, "bad_request", "request body: %v", err)
		}
		return
	}
	h.serveOne(rw, req, s)
}

// serveOne is the commit path: one decoded transaction in s.env, one
// reply.
//
//homeo:hotpath
func (h *Handler) serveOne(rw http.ResponseWriter, req *http.Request, s *txnScratch) {
	// The wait needs the request's context only for a deadline. Without
	// one the transaction runs to its own end whether or not the client
	// is still there, so waiting under the background context loses
	// nothing and spares the request context its cancellation channel.
	ctx := context.Background()
	if s.env.TimeoutMS > 0 {
		ctx = req.Context()
	}
	var res wire.TxnResult
	h.submitOne(ctx, &s.env.TxnRequest, &res)
	switch {
	case res.Error == nil:
		s.reply(rw, &res)
	case res.Error.Code == "dropped":
		// Queue overflow backpressure: the transaction never started.
		writeError(rw, http.StatusTooManyRequests, "dropped", "%s", res.Error.Message)
	case res.Error.Code == "site_gone":
		// The addressed site was drained from the membership: 410 so
		// clients refresh their topology and fail over to a survivor.
		writeError(rw, http.StatusGone, "site_gone", "%s", res.Error.Message)
	case res.Error.Code == "bad_request":
		writeError(rw, http.StatusBadRequest, "bad_request", "%s", res.Error.Message)
	case res.Error.Code == "not_found":
		writeError(rw, http.StatusNotFound, "not_found", "%s", res.Error.Message)
	default:
		// Executed but failed: abort vs timeout vs livelock is
		// distinguished in the body.
		s.reply(rw, &res)
	}
}

// handleStats serves the snapshot (GET /v1/stats); the query is not read.
func (h *Handler) handleStats(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(rw, http.StatusMethodNotAllowed, "method_not_allowed", "%s: GET only", req.URL.Path)
		return
	}
	writeJSON(rw, http.StatusOK, wireStats(h.c.Stats()))
}
