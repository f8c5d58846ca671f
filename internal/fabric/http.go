package fabric

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/homeo/wire"
	"repro/internal/fabric/codec"
	"repro/internal/httpcall"
	"repro/internal/rt"
)

// HTTP is the multi-process transport: the local site's Node is called
// directly, every other site is reached over real sockets with the peer
// messages of homeo/wire (served under /v1/peer/* by NewPeerHandler,
// which homeo/httpapi mounts). Communication latency is whatever the
// network charges.
//
// Request and reply bodies are codec-encoded (internal/fabric/codec,
// content type codec.ContentType) and nothing else is accepted: a
// cluster runs one build. Only error envelopes are JSON — that is how
// busy and site_gone are signalled, and what a human reads.
//
// While remote requests are in flight the coordinating process parks, so
// the site's runtime keeps executing local transactions — exactly the
// disconnected execution the protocol promises.
//
// A message costs what net/http charges for a POST and little else: it is
// made with the pooled call of internal/httpcall (the one homeo/client
// commits with), to a URL parsed when its peer joined the membership, under
// a header set built when the token was set, and both ends convert, encode
// and decode in scratch that the call, or the served request, brings along
// (see peerCall and served). docs/ARCHITECTURE.md, "The round budget", has
// the count.
type HTTP struct {
	rt   rt.Runtime
	self int
	node Node
	hc   *http.Client
	// ps is the current membership snapshot and hdr the header set of
	// every request. Exchanges load each once, so AddSite and SetToken
	// (which publish fresh ones) never race the goroutines of a scatter
	// in flight.
	ps  atomic.Pointer[peerSet]
	hdr atomic.Pointer[http.Header]
	// net, when set, carries the messages on a simulator instead (Sim).
	net *SimNet

	// Messages counts peer HTTP requests sent, one per message (an
	// observability surface for "no peer traffic outside violations").
	Messages atomic.Int64
}

// The peer endpoints, in the order NewPeerHandler mounts them.
const (
	epCollect = iota
	epInstallState
	epInstallTreaties
	epAbort
	epRejoin
	epJoin
	epDrain
	nEndpoints
)

var endpointNames = [nEndpoints]string{
	"collect", "install-state", "install-treaties", "abort", "rejoin", "join", "drain",
}

// peer is one remote site as every snapshot that holds it sees it.
type peer struct {
	// urls are the peer's endpoint URLs under its base address addr, parsed
	// once; err is why there are none, when the address does not parse.
	addr string
	urls [nEndpoints]*url.URL
	err  error
	// gone is set when the site drains; scatters skip it.
	gone atomic.Bool
}

func newPeer(addr string) *peer {
	p := &peer{addr: addr}
	for ep, name := range endpointNames {
		u, err := url.Parse(addr + "/v1/peer/" + name)
		if err != nil {
			p.err = err
		}
		p.urls[ep] = u
	}
	return p
}

// peerSet is one immutable membership snapshot, indexed by site. The peers
// are shared across snapshots, so a peer marked gone stays that way when
// the membership grows.
type peerSet []*peer

// with returns the snapshot grown by the given peers.
func (ps peerSet) with(addrs ...string) *peerSet {
	out := make(peerSet, len(ps), len(ps)+len(addrs))
	copy(out, ps)
	for _, addr := range addrs {
		out = append(out, newPeer(addr))
	}
	return &out
}

// NewHTTP builds the multi-process transport. self is this process's
// site, peers[k] is site k's base URL (peers[self] is unused), node is
// the local site's actor, and hc optionally overrides the pooled HTTP
// client.
func NewHTTP(r rt.Runtime, self int, peers []string, node Node, hc *http.Client) *HTTP {
	if hc == nil {
		hc = &http.Client{
			Timeout: 15 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	t := &HTTP{rt: r, self: self, node: node, hc: hc}
	t.ps.Store(peerSet(nil).with(peers...))
	t.SetToken("")
	return t
}

// AddSite grows the membership by one peer at the next index. Existing
// per-peer flags carry over; in-flight scatters keep their own snapshot.
func (t *HTTP) AddSite(addr string) {
	t.ps.Store(t.ps.Load().with(addr))
}

// MarkGone excludes a drained site from every future scatter.
func (t *HTTP) MarkGone(site int) {
	ps := *t.ps.Load()
	if site >= 0 && site < len(ps) {
		ps[site].gone.Store(true)
	}
}

// PeerTokenHeader carries the cluster's shared peer secret on every
// fabric request. The peer endpoints mutate site state, so any
// deployment beyond a trusted loopback should set a token.
const PeerTokenHeader = "X-Homeo-Peer-Token"

// peerContentType is the one Content-Type value of the peer surface,
// shared so that setting it costs no allocation.
var peerContentType = []string{codec.ContentType}

// SetToken makes every outgoing peer request carry the shared secret
// (see NewPeerHandler's token parameter for the server half).
func (t *HTTP) SetToken(token string) {
	hdr := http.Header{"Content-Type": peerContentType}
	if token != "" {
		hdr.Set(PeerTokenHeader, token)
	}
	t.hdr.Store(&hdr)
}

// NSites reports the cluster width.
func (t *HTTP) NSites() int { return len(*t.ps.Load()) }

// everySite is the skip argument of an exchange that leaves no site out.
const everySite = -1

// endpoint is one peer endpoint, both halves: the conversions of its
// request and its reply between fabric and wire form (convert.go says what
// each may alias), the Node method in between, and the pool of calls the
// client half posts it with.
type endpoint[Req, Rep, WReq, WRep any] struct {
	id          int
	reqToWire   func(*WReq, Req)
	reqFromWire func(*reqScratch, *WReq) (Req, error)
	handle      func(Node, Req) (Rep, error)
	repToWire   func(*WRep, Rep)
	repFromWire func(*WRep) Rep
	calls       sync.Pool // of *peerCall[WReq, WRep]
}

func newEndpoint[Req, Rep, WReq, WRep any](
	id int,
	reqToWire func(*WReq, Req), reqFromWire func(*reqScratch, *WReq) (Req, error),
	handle func(Node, Req) (Rep, error),
	repToWire func(*WRep, Rep), repFromWire func(*WRep) Rep,
) *endpoint[Req, Rep, WReq, WRep] {
	ep := &endpoint[Req, Rep, WReq, WRep]{
		id: id, reqToWire: reqToWire, reqFromWire: reqFromWire, handle: handle,
		repToWire: repToWire, repFromWire: repFromWire,
	}
	ep.calls.New = func() any {
		c := new(peerCall[WReq, WRep])
		c.Init()
		c.ep, c.reply, c.run = id, &c.out, c.deliver
		return c
	}
	return ep
}

// The seven endpoints.
var (
	collectEP         = newEndpoint(epCollect, collectToWire, collectFromWire, Node.CollectState, stateToWire, stateFromWire)
	installStateEP    = newEndpoint(epInstallState, installStateToWire, installStateFromWire, acked(Node.InstallState), ackToWire, ackFromWire)
	installTreatiesEP = newEndpoint(epInstallTreaties, installTreatiesToWire, installTreatiesFromWire, acked(Node.InstallTreaties), ackToWire, ackFromWire)
	abortEP           = newEndpoint(epAbort, abortToWire, abortFromWire, acked(Node.AbortRound), ackToWire, ackFromWire)
	rejoinEP          = newEndpoint(epRejoin, rejoinToWire, rejoinFromWire, Node.Rejoin, rejoinReplyToWire, rejoinReplyFromWire)
	joinEP            = newEndpoint(epJoin, joinToWire, joinFromWire, Node.JoinSite, joinReplyToWire, joinReplyFromWire)
	drainEP           = newEndpoint(epDrain, drainToWire, drainFromWire, Node.DrainSite, drainReplyToWire, drainReplyFromWire)
)

// acked lifts a Node method that only succeeds or fails into the
// request→reply shape an endpoint takes: its reply is the ack, which
// echoes the request's clock.
func acked[Req interface{ clock() int64 }](f func(Node, Req) error) func(Node, Req) (wire.PeerAck, error) {
	return func(n Node, m Req) (wire.PeerAck, error) { return wire.PeerAck{Clock: m.clock()}, f(n, m) }
}

func (m InstallState) clock() int64    { return m.Clock }
func (m InstallTreaties) clock() int64 { return m.Clock }
func (m AbortRound) clock() int64      { return m.Clock }

// call is one message to one peer: the pooled POST, and around it what the
// goroutine that delivers it needs and what the exchange reads afterwards.
type call struct {
	httpcall.Call
	dec codec.Decoder
	ep  int
	// reply points to the wire reply the answer is decoded into (the out of
	// the peerCall this call is part of), boxed once.
	reply any
	// run is deliver as a func value, bound once: a go statement on a
	// method call would wrap it in a new closure per message.
	run func()

	// Set by the exchange for each delivery.
	t    *HTTP
	hdr  http.Header
	peer *peer
	site int
	fl   *flight
	// err is how the delivery went.
	err error
}

// peerCall is a call with its endpoint's wire scratch: the request is
// converted into in and encoded from there, the answer decoded into out and
// converted from there, and both are filled over what the call's last use
// left in them. Nothing the coordinator gets back refers to either.
type peerCall[WReq, WRep any] struct {
	call
	in  WReq
	out WRep
}

// flight is one scatter in the air: how many of its deliveries are still
// out and how to wake the coordinator when the last is back. The wake is
// scheduled through the runtime so it runs under the execution right; it
// cannot fire before Park because the scheduler lock is held from PrepPark
// until Park releases it.
type flight struct {
	rt      rt.Runtime
	p       rt.Proc
	token   int64
	pending atomic.Int32
	// wake is wakeUp as a func value, bound once.
	wake func()
}

var flights = sync.Pool{New: func() any {
	f := new(flight)
	f.wake = f.wakeUp
	return f
}}

func (f *flight) wakeUp() { f.p.WakeIf(f.token) }

// deliver runs on the delivery's own goroutine: post, then land.
func (c *call) deliver() {
	c.err = c.post()
	c.land()
}

// land wakes the coordinator if this was the last delivery out. It touches
// nothing of the flight after that: the coordinator takes it back.
func (c *call) land() {
	if fl := c.fl; fl.pending.Add(-1) == 0 {
		fl.rt.At(fl.rt.Now(), fl.wake)
	}
}

// maxPeerBody bounds a peer body, request or reply. The largest
// legitimate one is a join cut or an absorbed unit's folded state; with no
// peer token set the surface is unauthenticated, so the bound is what
// stands between a stranger — or whatever answers at a peer's address —
// and the process's memory.
const maxPeerBody = 16 << 20

// post performs one round trip to a peer endpoint: c.Payload out, the
// answer decoded into c.reply.
//
//homeo:hotpath
func (c *call) post() error {
	c.t.Messages.Add(1)
	if c.peer.err != nil {
		return c.peer.err
	}
	resp, err := c.Send(context.Background(), c.t.hc, c.peer.urls[c.ep], c.hdr)
	if err != nil {
		return err
	}
	return c.read(resp)
}

// read takes the peer's answer: the reply decoded into c.reply, or the
// refusal it is.
//
//homeo:hotpath
func (c *call) read(resp *http.Response) error {
	if resp.StatusCode != http.StatusOK {
		return refusal(endpointNames[c.ep], resp)
	}
	if err := c.ReadReply(resp, maxPeerBody); err != nil {
		return replyError(endpointNames[c.ep], err)
	}
	return c.dec.Decode(c.Reply, c.reply)
}

// refusal reads a peer's error envelope.
func refusal(endpoint string, resp *http.Response) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<10))
	if err != nil {
		return err
	}
	var envelope wire.ErrorResponse
	if json.Unmarshal(data, &envelope) == nil {
		switch envelope.Error.Code {
		case "busy":
			return ErrBusy
		case "site_gone":
			return ErrSiteGone
		}
	}
	return fmt.Errorf("peer %s: HTTP %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(data))
}

// replyError words a reply that could not be read.
func replyError(endpoint string, err error) error {
	if errors.Is(err, httpcall.ErrReplyTooLong) {
		return fmt.Errorf("peer %s: reply exceeds %d bytes", endpoint, maxPeerBody)
	}
	return fmt.Errorf("peer %s: reading the reply: %w", endpoint, err)
}

// ScratchHook, when a test sets it, is handed every piece of scratch that a
// peer call or a served request is done with, just before it goes back to
// its pool, to scribble over: nothing a Node or a coordinator kept may
// change. The engine's pools above the transport hand it theirs too — a
// round scratch's reply maps, a submission's arguments, a treaty slot's
// retired generation, an httpapi transaction's scratch — and Local its
// reply slice before refilling it. Nil outside tests.
var ScratchHook func(scratch ...any)

// release gives a call whose answer has been converted back to the pool.
//
//homeo:release sync.Pool
func (ep *endpoint[Req, Rep, WReq, WRep]) release(c *peerCall[WReq, WRep]) {
	c.t, c.hdr, c.peer, c.fl = nil, nil, nil, nil
	if ScratchHook != nil {
		ScratchHook(&c.in, &c.out, c.Payload, c.Reply)
	}
	if c.Reusable() {
		ep.calls.Put(c)
	}
}

// worst keeps, of the failures an exchange saw, the one it surfaces: a
// busy refusal first (it means "retry", and must win over secondary
// failures), then the failure at the lowest site.
type worst struct {
	site int
	err  error
}

func (w *worst) note(site int, err error) {
	if err == nil {
		return
	}
	if w.err != nil {
		was, is := errors.Is(w.err, ErrBusy), errors.Is(err, ErrBusy)
		if was && !is || was == is && w.site < site {
			return
		}
	}
	w.site, w.err = site, err
}

func (w *worst) siteError() error {
	if w.err == nil {
		return nil
	}
	return &SiteError{Site: w.site, Err: w.err}
}

// exchange is the client half of every peer endpoint: scatter the messages
// — the self site's handled inline by the Node (the caller holds the
// execution right; Node handlers never park), every other live site's
// posted on a goroutine of its own while the calling process parks — and
// gather the replies into replies, indexed by site (nil when the caller
// wants none; a site left out keeps the zero reply). Drained sites and the
// skip site (the sender of a handshake that addresses only its peers) are
// left out. ms is either one message for every site or one message per
// site. Only what is posted is converted to wire form and encoded, all of
// it up front, so a message that cannot be put on the wire surfaces before
// any site has been touched.
//
//homeo:hotpath
func exchange[Req, Rep, WReq, WRep any](
	t *HTTP, p rt.Proc, ep *endpoint[Req, Rep, WReq, WRep], skip int, ms []Req, replies []Rep,
) error {
	ps, hdr := *t.ps.Load(), *t.hdr.Load()
	var room [4]*peerCall[WReq, WRep]
	calls := room[:0]
	for k, peer := range ps {
		if k == t.self || k == skip || peer.gone.Load() {
			continue
		}
		c := ep.calls.Get().(*peerCall[WReq, WRep])
		ep.reqToWire(&c.in, msgFor(ms, k))
		var err error
		if c.Payload, err = codec.AppendMessage(c.Payload[:0], &c.in); err != nil {
			return &SiteError{Site: k, Err: err}
		}
		c.t, c.hdr, c.peer, c.site = t, hdr, peer, k
		calls = append(calls, c)
	}
	var failed worst
	self := t.self >= 0 && t.self < len(ps) && t.self != skip && !ps[t.self].gone.Load()
	var fl *flight
	if len(calls) > 0 {
		fl = flights.Get().(*flight)
		fl.rt, fl.p, fl.token = t.rt, p, p.PrepPark()
		fl.pending.Store(int32(len(calls)))
		for _, c := range calls {
			c.fl = fl
			if t.net != nil {
				t.net.carry(&c.call)
			} else {
				go c.run()
			}
		}
	}
	if self {
		rep, err := ep.handle(t.node, msgFor(ms, t.self))
		if replies != nil {
			replies[t.self] = rep
		}
		failed.note(t.self, err)
	}
	if fl != nil {
		p.Park()
		fl.rt, fl.p = nil, nil
		flights.Put(fl)
	}
	for _, c := range calls {
		if c.err != nil {
			//homeo:leak failed in transit or refused: net/http may still read the body
			failed.note(c.site, c.err)
			continue
		}
		if replies != nil {
			replies[c.site] = ep.repFromWire(&c.out)
		}
		ep.release(c)
	}
	return failed.siteError()
}

// msgFor returns a site's message of an exchange: ms holds one for every
// site or one per site.
func msgFor[Req any](ms []Req, site int) Req {
	if len(ms) > 1 {
		return ms[site]
	}
	return ms[0]
}

// Collect materializes the message, scatters it, and gathers the replies.
func (t *HTTP) Collect(p rt.Proc, from int, mkMsg func() CollectState) ([]StateReply, error) {
	return gather(t, p, collectEP, everySite, mkMsg())
}

// Install delivers the folded state everywhere.
func (t *HTTP) Install(p rt.Proc, from int, m InstallState) error {
	return exchange(t, p, installStateEP, everySite, []InstallState{m}, nil)
}

// Distribute delivers each site its treaties.
func (t *HTTP) Distribute(p rt.Proc, from int, ms []InstallTreaties) error {
	return exchange(t, p, installTreatiesEP, everySite, ms, nil)
}

// Abort releases the round everywhere.
func (t *HTTP) Abort(p rt.Proc, from int, m AbortRound) error {
	return exchange(t, p, abortEP, everySite, []AbortRound{m}, nil)
}

// Rejoin delivers the recovery handshake to every peer of the rejoining
// site (the from site is the sender, so it is skipped).
func (t *HTTP) Rejoin(p rt.Proc, from int, m Rejoin) ([]RejoinReply, error) {
	return gather(t, p, rejoinEP, from, m)
}

// Join delivers a join-handshake phase to every member except the
// joining site (the sender) and gathers the replies.
func (t *HTTP) Join(p rt.Proc, from int, m JoinSite) ([]JoinReply, error) {
	return gather(t, p, joinEP, from, m)
}

// Drain announces the drained site to every other member and gathers
// the acks.
func (t *HTTP) Drain(p rt.Proc, from int, m DrainSite) ([]DrainReply, error) {
	return gather(t, p, drainEP, from, m)
}

// gather is an exchange of one message for every site whose caller wants
// the replies: they are the caller's to keep.
func gather[Req, Rep, WReq, WRep any](
	t *HTTP, p rt.Proc, ep *endpoint[Req, Rep, WReq, WRep], skip int, m Req,
) ([]Rep, error) {
	replies := make([]Rep, t.NSites())
	if err := exchange(t, p, ep, skip, []Req{m}, replies); err != nil {
		return nil, err
	}
	return replies, nil
}

var _ Elastic = (*HTTP)(nil)

// NewPeerHandler serves the peer protocol over a node: the server half
// of the HTTP transport. The handler owns the full /v1/peer/* paths, so
// it can be mounted on any mux (homeo/httpapi merges it into the /v1
// surface) or serve standalone. exec runs each handler under the site
// runtime's execution right (e.g. via rtlive.Runtime.Locked); nil calls
// handlers directly, for nodes that synchronize themselves. A non-empty
// token makes every request prove the shared secret (PeerTokenHeader)
// before touching the node — these endpoints mutate site state, so set
// one whenever peers talk over anything but a trusted loopback.
func NewPeerHandler(node Node, exec func(func()), token string) http.Handler {
	if exec == nil {
		exec = func(fn func()) { fn() }
	}
	h := &peerHandler{node: node, exec: exec, token: token}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/peer/collect", serve(h, collectEP))
	mux.HandleFunc("/v1/peer/install-state", serve(h, installStateEP))
	mux.HandleFunc("/v1/peer/install-treaties", serve(h, installTreatiesEP))
	mux.HandleFunc("/v1/peer/abort", serve(h, abortEP))
	mux.HandleFunc("/v1/peer/rejoin", serve(h, rejoinEP))
	mux.HandleFunc("/v1/peer/join", serve(h, joinEP))
	mux.HandleFunc("/v1/peer/drain", serve(h, drainEP))
	return mux
}

type peerHandler struct {
	node  Node
	exec  func(func())
	token string
}

// served is one request to a peer endpoint being answered, and everything
// answering it needs from the body to the reply: requests are served out of
// a pool of these, one pool per handler and endpoint. The body is read into
// body and decoded into in, the fabric message built from that (out of sc
// where convert.go says it may be), the Node's reply converted into out and
// encoded into reply — each filled over what the last request left there.
// What the Node keeps of a message is not in here, and what is in here the
// Node has finished with when its method returns.
type served[Req, Rep, WReq, WRep any] struct {
	h   *peerHandler
	ep  *endpoint[Req, Rep, WReq, WRep]
	dec codec.Decoder

	body, reply []byte
	in          WReq
	out         WRep
	sc          reqScratch

	// The call into the Node: run is handle as a func value, bound once,
	// for exec to run; m goes in, rep and err come out.
	run func()
	m   Req
	rep Rep
	err error
}

// serve is the server half of a peer endpoint.
func serve[Req, Rep, WReq, WRep any](h *peerHandler, ep *endpoint[Req, Rep, WReq, WRep]) http.HandlerFunc {
	pool := &sync.Pool{New: func() any {
		s := &served[Req, Rep, WReq, WRep]{h: h, ep: ep}
		s.run = s.handle
		return s
	}}
	return func(rw http.ResponseWriter, req *http.Request) {
		s := pool.Get().(*served[Req, Rep, WReq, WRep])
		s.answer(rw, req)
		s.release(pool)
	}
}

func (s *served[Req, Rep, WReq, WRep]) handle() { s.rep, s.err = s.ep.handle(s.h.node, s.m) }

// answer authenticates and decodes the wire request, converts it, runs the
// Node's method under the execution right, and answers with the converted
// reply — or the error envelope, at whichever step failed.
//
//homeo:hotpath
func (s *served[Req, Rep, WReq, WRep]) answer(rw http.ResponseWriter, req *http.Request) {
	if !s.h.admit(rw, req) {
		return
	}
	var err error
	if s.body, err = httpcall.ReadRequest(rw, req, s.body, maxPeerBody); err == nil {
		err = s.dec.Decode(s.body, &s.in)
	}
	if err != nil {
		refuseBody(rw, err)
		return
	}
	if s.m, err = s.ep.reqFromWire(&s.sc, &s.in); err != nil {
		peerError(rw, err)
		return
	}
	s.h.exec(s.run)
	if s.err != nil {
		peerError(rw, s.err)
		return
	}
	s.ep.repToWire(&s.out, s.rep)
	if s.reply, err = codec.AppendMessage(s.reply[:0], &s.out); err != nil {
		peerError(rw, err)
		return
	}
	rw.Header()["Content-Type"] = peerContentType
	rw.WriteHeader(http.StatusOK)
	// A short write here means the client hung up; there is no channel
	// left to report it on.
	_, _ = rw.Write(s.reply)
}

// release lets go of the message and the Node's reply and gives the rest
// back to the pool, unless a large body grew it.
//
//homeo:release sync.Pool
func (s *served[Req, Rep, WReq, WRep]) release(pool *sync.Pool) {
	var (
		m   Req
		rep Rep
	)
	s.m, s.rep, s.err = m, rep, nil
	if ScratchHook != nil {
		ScratchHook(s.sc.objs, s.sc.folded, s.sc.units, s.sc.cons, s.sc.terms, &s.in, &s.out, s.body, s.reply)
	}
	if cap(s.body) <= wire.MaxPooledBuf && cap(s.reply) <= wire.MaxPooledBuf {
		pool.Put(s)
	}
}

// refuse answers with the JSON error envelope. Errors are JSON on a
// surface that is otherwise codec-only so that busy and site_gone stay
// recognizable and a human can read a refusal.
func refuse(rw http.ResponseWriter, status int, code, message string) {
	body, err := json.Marshal(wire.ErrorResponse{Error: wire.Error{Code: code, Message: message}})
	if err != nil {
		http.Error(rw, `{"error":{"code":"internal","message":"response encoding failed"}}`,
			http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	// A short write here means the client hung up; there is no channel
	// left to report it on. (The newline is json.Encoder's, which wrote
	// these bodies first.)
	_, _ = rw.Write(append(body, '\n'))
}

// peerError answers a failed handler call.
func peerError(rw http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, ErrBusy):
		status, code = http.StatusConflict, "busy"
	case errors.Is(err, ErrSiteGone):
		status, code = http.StatusGone, "site_gone"
	}
	refuse(rw, status, code, err.Error())
}

// refuseBody answers a request whose body could not be read or decoded.
func refuseBody(rw http.ResponseWriter, err error) {
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		refuse(rw, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	refuse(rw, http.StatusBadRequest, "bad_request", err.Error())
}

// admit authenticates a peer request and checks that it is a POST of a
// codec body, answering the refusal itself when it reports false.
func (h *peerHandler) admit(rw http.ResponseWriter, req *http.Request) bool {
	if req.Method != http.MethodPost {
		refuse(rw, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return false
	}
	if h.token != "" &&
		subtle.ConstantTimeCompare([]byte(req.Header.Get(PeerTokenHeader)), []byte(h.token)) != 1 {
		refuse(rw, http.StatusUnauthorized, "unauthorized", "missing or wrong peer token")
		return false
	}
	if ct := req.Header.Get("Content-Type"); ct != codec.ContentType {
		refuse(rw, http.StatusUnsupportedMediaType, "unsupported_media_type",
			fmt.Sprintf("content type %q: peer bodies are %s only", ct, codec.ContentType))
		return false
	}
	return true
}
