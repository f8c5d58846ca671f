package fabric

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/homeo/wire"
	"repro/internal/fabric/codec"
	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/rt"
	"repro/internal/treaty"
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
type HTTP struct {
	rt    rt.Runtime
	self  int
	node  Node
	hc    *http.Client
	token string
	// ps is the current membership snapshot. Scatters load it once per
	// round, so AddSite/MarkGone (which publish a fresh snapshot) never
	// race the goroutines of an in-flight scatter.
	ps atomic.Pointer[peerSet]

	// Messages counts peer HTTP requests sent, one per message (an
	// observability surface for "no peer traffic outside violations").
	Messages atomic.Int64
}

// peerSet is one immutable membership snapshot: peer addresses plus the
// per-peer gone flags. The flag cells are pointers shared across
// snapshots, so a peer marked gone stays that way when the membership
// grows.
type peerSet struct {
	addrs []string
	// gone[k] is set when site k drains; scatters skip it.
	gone []*atomic.Bool
}

// with returns the snapshot grown by the given peers, sharing the
// receiver's flag cells.
func (ps *peerSet) with(addrs ...string) *peerSet {
	out := &peerSet{
		addrs: append(append([]string(nil), ps.addrs...), addrs...),
		gone:  append([]*atomic.Bool(nil), ps.gone...),
	}
	for range addrs {
		out.gone = append(out.gone, new(atomic.Bool))
	}
	return out
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
	t.ps.Store((&peerSet{}).with(peers...))
	return t
}

// AddSite grows the membership by one peer at the next index (node is
// unused — this process's own site is fixed). Existing per-peer flags
// carry over; in-flight scatters keep their own snapshot.
func (t *HTTP) AddSite(addr string, node Node) {
	_ = node
	t.ps.Store(t.ps.Load().with(addr))
}

// MarkGone excludes a drained site from every future scatter.
func (t *HTTP) MarkGone(site int) {
	ps := t.ps.Load()
	if site >= 0 && site < len(ps.gone) {
		ps.gone[site].Store(true)
	}
}

// PeerTokenHeader carries the cluster's shared peer secret on every
// fabric request. The peer endpoints mutate site state, so any
// deployment beyond a trusted loopback should set a token.
const PeerTokenHeader = "X-Homeo-Peer-Token"

// SetToken makes every outgoing peer request carry the shared secret
// (see NewPeerHandler's token parameter for the server half).
func (t *HTTP) SetToken(token string) { t.token = token }

// NSites reports the cluster width.
func (t *HTTP) NSites() int { return len(t.ps.Load().addrs) }

// everySite is the skip argument of a scatter that leaves no site out.
const everySite = -1

// scatter delivers one request per site of the ps snapshot: the self
// site inline (the caller holds the execution right; Node handlers never
// park), remote sites on goroutines while the calling process parks.
// Drained sites and the skip site (the sender of a handshake that
// addresses only its peers) are left out; their error slots stay nil.
// The wake is scheduled through the runtime so it runs under the
// execution right; it cannot fire before Park because the scheduler lock
// is held from PrepPark until Park releases it.
func (t *HTTP) scatter(p rt.Proc, ps *peerSet, skip int, do func(site int) error) error {
	n := len(ps.addrs)
	errs := make([]error, n)
	live := func(k int) bool { return k != skip && !ps.gone[k].Load() }
	remotes := int32(0)
	for k := 0; k < n; k++ {
		if k != t.self && live(k) {
			remotes++
		}
	}
	selfLive := t.self >= 0 && t.self < n && live(t.self)
	if remotes > 0 {
		token := p.PrepPark()
		pending := remotes
		for k := 0; k < n; k++ {
			if k == t.self || !live(k) {
				continue
			}
			k := k
			go func() {
				errs[k] = do(k)
				if atomic.AddInt32(&pending, -1) == 0 {
					t.rt.At(t.rt.Now(), func() { p.WakeIf(token) })
				}
			}()
		}
		if selfLive {
			errs[t.self] = do(t.self)
		}
		p.Park()
	} else if selfLive {
		errs[t.self] = do(t.self)
	}
	// Surface a busy refusal first (it means "retry", and must win over
	// secondary failures), then the first error in site order.
	var firstErr error
	for k, err := range errs {
		if err == nil {
			continue
		}
		se := &SiteError{Site: k, Err: err}
		if errors.Is(err, ErrBusy) {
			return se
		}
		if firstErr == nil {
			firstErr = se
		}
	}
	return firstErr
}

// exchange is the client half of every peer endpoint: convert the
// messages to wire form, scatter them — the self site handled inline by
// handle, every other live site by a POST to endpoint — and gather the
// replies indexed by site (a site left out keeps the zero reply). ms is
// either one message for every site or one message per site. All
// conversions happen up front, so a message that cannot be put on the
// wire surfaces before any site has been touched.
func exchange[Req, Rep, WReq, WRep any](
	t *HTTP, p rt.Proc, endpoint string, skip int, ms []Req,
	toWire func(Req) (WReq, error), handle func(Node, Req) (Rep, error), fromWire func(WRep) Rep,
) ([]Rep, error) {
	ws := make([]WReq, len(ms))
	for i, m := range ms {
		w, err := toWire(m)
		if err != nil {
			return nil, &SiteError{Site: i, Err: err}
		}
		ws[i] = w
	}
	ps := t.ps.Load()
	replies := make([]Rep, len(ps.addrs))
	err := t.scatter(p, ps, skip, func(k int) (err error) {
		i := 0
		if len(ms) > 1 {
			i = k
		}
		if k == t.self {
			replies[k], err = handle(t.node, ms[i])
			return err
		}
		var out WRep
		if err = t.post(ps.addrs[k], endpoint, &ws[i], &out); err == nil {
			replies[k] = fromWire(out)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return replies, nil
}

// Collect materializes the message, scatters it, and gathers the replies.
func (t *HTTP) Collect(p rt.Proc, from int, mkMsg func() CollectState) ([]StateReply, error) {
	return exchange(t, p, "collect", everySite, []CollectState{mkMsg()},
		noErr(CollectToWire), Node.CollectState, stateFromWire)
}

// Install delivers the folded state everywhere.
func (t *HTTP) Install(p rt.Proc, from int, m InstallState) error {
	_, err := exchange(t, p, "install-state", everySite, []InstallState{m},
		noErr(InstallStateToWire), installState, ackWire)
	return err
}

// Distribute delivers each site its treaties.
func (t *HTTP) Distribute(p rt.Proc, from int, ms []InstallTreaties) error {
	_, err := exchange(t, p, "install-treaties", everySite, ms,
		noErr(InstallTreatiesToWire), installTreaties, ackWire)
	return err
}

// Abort releases the round everywhere.
func (t *HTTP) Abort(p rt.Proc, from int, m AbortRound) error {
	_, err := exchange(t, p, "abort", everySite, []AbortRound{m},
		noErr(abortToWire), abortRound, ackWire)
	return err
}

// Rejoin delivers the recovery handshake to every peer of the rejoining
// site (the from site is the sender, so it is skipped).
func (t *HTTP) Rejoin(p rt.Proc, from int, m Rejoin) ([]RejoinReply, error) {
	return exchange(t, p, "rejoin", from, []Rejoin{m},
		noErr(RejoinToWire), Node.Rejoin, RejoinReplyFromWire)
}

// Join delivers a join-handshake phase to every member except the
// joining site (the sender) and gathers the replies.
func (t *HTTP) Join(p rt.Proc, from int, m JoinSite) ([]JoinReply, error) {
	return exchange(t, p, "join", from, []JoinSite{m},
		noErr(JoinToWire), Node.JoinSite, JoinReplyFromWire)
}

// Drain announces the drained site to every other member and gathers
// the acks.
func (t *HTTP) Drain(p rt.Proc, from int, m DrainSite) ([]DrainReply, error) {
	return exchange(t, p, "drain", from, []DrainSite{m},
		noErr(DrainToWire), Node.DrainSite, drainReplyFromWire)
}

// bufPool recycles the request/response buffers of the peer surface, so
// a round trip does not allocate a body per message.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	b.Reset()
	bufPool.Put(b)
}

// post performs one round trip to a peer endpoint. in and out are
// pointers to the endpoint's wire request and reply.
func (t *HTTP) post(addr, endpoint string, in, out any) error {
	t.Messages.Add(1)
	body := getBuf()
	defer putBuf(body)
	b, err := codec.AppendMessage(body.AvailableBuffer(), in)
	if err != nil {
		return err
	}
	body.Write(b)
	req, err := http.NewRequest(http.MethodPost, addr+"/v1/peer/"+endpoint, bytes.NewReader(body.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", codec.ContentType)
	if t.token != "" {
		req.Header.Set(PeerTokenHeader, t.token)
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply := getBuf()
	defer putBuf(reply)
	if resp.StatusCode == http.StatusOK {
		if _, err := reply.ReadFrom(resp.Body); err != nil {
			return err
		}
		return codec.DecodeMessage(reply.Bytes(), out)
	}
	if _, err := reply.ReadFrom(io.LimitReader(resp.Body, 16<<10)); err != nil {
		return err
	}
	var envelope wire.ErrorResponse
	if json.Unmarshal(reply.Bytes(), &envelope) == nil {
		switch envelope.Error.Code {
		case "busy":
			return ErrBusy
		case "site_gone":
			return ErrSiteGone
		}
	}
	return fmt.Errorf("peer %s: HTTP %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(reply.Bytes()))
}

var _ Transport = (*HTTP)(nil)

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
	mux.HandleFunc("/v1/peer/collect", serve(h, noErr(CollectFromWire), Node.CollectState, stateToWire))
	mux.HandleFunc("/v1/peer/install-state", serve(h, noErr(InstallStateFromWire), installState, ackWire))
	mux.HandleFunc("/v1/peer/install-treaties", serve(h, InstallTreatiesFromWire, installTreaties, ackWire))
	mux.HandleFunc("/v1/peer/abort", serve(h, noErr(abortFromWire), abortRound, ackWire))
	mux.HandleFunc("/v1/peer/rejoin", serve(h, noErr(RejoinFromWire), Node.Rejoin, RejoinReplyToWire))
	mux.HandleFunc("/v1/peer/join", serve(h, noErr(JoinFromWire), Node.JoinSite, JoinReplyToWire))
	mux.HandleFunc("/v1/peer/drain", serve(h, noErr(DrainFromWire), Node.DrainSite, drainReplyToWire))
	return mux
}

type peerHandler struct {
	node  Node
	exec  func(func())
	token string
}

// serve is the server half of every peer endpoint: authenticate and
// decode the wire request, convert it, run handle on the node under the
// execution right, and answer with the converted reply — or the error
// envelope, at whichever step failed.
func serve[Req, Rep, WReq, WRep any](
	h *peerHandler, fromWire func(WReq) (Req, error), handle func(Node, Req) (Rep, error), toWire func(Rep) WRep,
) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		var in WReq
		if !h.decodePeer(rw, req, &in) {
			return
		}
		m, err := fromWire(in)
		if err != nil {
			peerError(rw, err)
			return
		}
		var rep Rep
		h.exec(func() { rep, err = handle(h.node, m) })
		if err != nil {
			peerError(rw, err)
			return
		}
		out := toWire(rep)
		peerReply(rw, &out)
	}
}

// noErr lifts a conversion that cannot fail into the fallible shape
// exchange and serve take.
func noErr[A, B any](f func(A) B) func(A) (B, error) {
	return func(a A) (B, error) { return f(a), nil }
}

// acked lifts a Node method that only succeeds or fails into the
// request→reply shape exchange and serve take: its reply is the ack,
// which echoes the request's clock.
func acked[Req interface{ clock() int64 }](f func(Node, Req) error) func(Node, Req) (wire.PeerAck, error) {
	return func(n Node, m Req) (wire.PeerAck, error) { return wire.PeerAck{Clock: m.clock()}, f(n, m) }
}

// The ack-only Node methods, lifted once for both halves.
var (
	installState    = acked(Node.InstallState)
	installTreaties = acked(Node.InstallTreaties)
	abortRound      = acked(Node.AbortRound)
)

func (m InstallState) clock() int64    { return m.Clock }
func (m InstallTreaties) clock() int64 { return m.Clock }
func (m AbortRound) clock() int64      { return m.Clock }

// ackWire is both wire conversions of an ack: acked answers in wire form.
func ackWire(a wire.PeerAck) wire.PeerAck { return a }

// refuse answers with the JSON error envelope. Errors are JSON on a
// surface that is otherwise codec-only so that busy and site_gone stay
// recognizable and a human can read a refusal. The body is encoded into
// a pooled buffer first so an encode failure can still become a 500
// instead of a half-written reply with the status already on the wire.
func refuse(rw http.ResponseWriter, status int, code, message string) {
	buf := getBuf()
	defer putBuf(buf)
	envelope := wire.ErrorResponse{Error: wire.Error{Code: code, Message: message}}
	if err := json.NewEncoder(buf).Encode(envelope); err != nil {
		http.Error(rw, `{"error":{"code":"internal","message":"response encoding failed"}}`,
			http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	// A short write here means the client hung up; there is no channel
	// left to report it on.
	_, _ = rw.Write(buf.Bytes())
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

// peerReply answers a successful handler call; v is a pointer to the
// endpoint's wire reply.
func peerReply(rw http.ResponseWriter, v any) {
	buf := getBuf()
	defer putBuf(buf)
	b, err := codec.AppendMessage(buf.AvailableBuffer(), v)
	if err != nil {
		peerError(rw, err)
		return
	}
	buf.Write(b)
	rw.Header().Set("Content-Type", codec.ContentType)
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(buf.Bytes())
}

// maxPeerBody bounds a peer request body. The largest legitimate one is
// a join cut or a migrating unit's folded state; with no peer token set
// the surface is unauthenticated, so the bound is what stands between a
// stranger and the process's memory.
const maxPeerBody = 16 << 20

// decodePeer authenticates a peer request and decodes its body into v (a
// pointer to the endpoint's wire request), answering the refusal itself
// when it reports false.
func (h *peerHandler) decodePeer(rw http.ResponseWriter, req *http.Request, v any) bool {
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
	buf := getBuf()
	defer putBuf(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(rw, req.Body, maxPeerBody))
	if err == nil {
		err = codec.DecodeMessage(buf.Bytes(), v)
	}
	if err == nil {
		return true
	}
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		refuse(rw, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	} else {
		refuse(rw, http.StatusBadRequest, "bad_request", err.Error())
	}
	return false
}

// --- fabric message ↔ wire message conversions ---------------------------

func dbToWire(d lang.Database) map[string]int64 {
	out := make(map[string]int64, len(d))
	for obj, v := range d {
		out[string(obj)] = v
	}
	return out
}

func dbFromWire(m map[string]int64) lang.Database {
	out := make(lang.Database, len(m))
	for name, v := range m {
		out[lang.ObjID(name)] = v
	}
	return out
}

func objsToWire(objs []lang.ObjID) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = string(o)
	}
	return out
}

func objsFromWire(names []string) []lang.ObjID {
	out := make([]lang.ObjID, len(names))
	for i, n := range names {
		out[i] = lang.ObjID(n)
	}
	return out
}

// CollectToWire encodes a CollectState message.
func CollectToWire(m CollectState) wire.PeerCollect {
	return wire.PeerCollect{
		From: m.Round.Site, Round: m.Round.Seq, Clock: m.Clock,
		Units: m.Units, Objs: objsToWire(m.Objs),
	}
}

// CollectFromWire decodes a CollectState message.
func CollectFromWire(w wire.PeerCollect) CollectState {
	return CollectState{
		Round: RoundID{Site: w.From, Seq: w.Round}, Clock: w.Clock,
		Units: w.Units, Objs: objsFromWire(w.Objs),
	}
}

func stateToWire(m StateReply) wire.PeerState {
	return wire.PeerState{Clock: m.Clock, Values: dbToWire(m.Values)}
}

func stateFromWire(w wire.PeerState) StateReply {
	return StateReply{Clock: w.Clock, Values: dbFromWire(w.Values)}
}

// InstallStateToWire encodes an InstallState message.
func InstallStateToWire(m InstallState) wire.PeerInstallState {
	out := wire.PeerInstallState{
		From: m.Round.Site, Round: m.Round.Seq, Clock: m.Clock,
		Objs: objsToWire(m.Objs), Folded: dbToWire(m.Folded),
	}
	if m.Winner != nil {
		out.Winner = &wire.PeerWinner{
			Class: m.Winner.Class, Args: m.Winner.Args, Site: m.Winner.Site,
			Units: m.Winner.Units, Log: m.Winner.Log,
		}
	}
	return out
}

// InstallStateFromWire decodes an InstallState message.
func InstallStateFromWire(w wire.PeerInstallState) InstallState {
	out := InstallState{
		Round: RoundID{Site: w.From, Seq: w.Round}, Clock: w.Clock,
		Objs: objsFromWire(w.Objs), Folded: dbFromWire(w.Folded),
	}
	if w.Winner != nil {
		out.Winner = &WinnerCommit{
			Class: w.Winner.Class, Args: w.Winner.Args, Site: w.Winner.Site,
			Units: w.Winner.Units, Log: w.Winner.Log,
		}
	}
	return out
}

func abortToWire(m AbortRound) wire.PeerAbort {
	return wire.PeerAbort{From: m.Round.Site, Round: m.Round.Seq, Clock: m.Clock}
}

func abortFromWire(w wire.PeerAbort) AbortRound {
	return AbortRound{Round: RoundID{Site: w.From, Seq: w.Round}, Clock: w.Clock}
}

// RejoinToWire encodes a Rejoin handshake.
func RejoinToWire(m Rejoin) wire.PeerRejoin {
	out := wire.PeerRejoin{Site: m.Site, Clock: m.Clock}
	for unit, v := range m.Versions {
		out.Units = append(out.Units, wire.PeerUnitVersion{Unit: unit, Version: v})
	}
	sort.Slice(out.Units, func(i, j int) bool { return out.Units[i].Unit < out.Units[j].Unit })
	return out
}

// RejoinFromWire decodes a Rejoin handshake.
func RejoinFromWire(w wire.PeerRejoin) Rejoin {
	out := Rejoin{Site: w.Site, Clock: w.Clock, Versions: make(map[int]int64, len(w.Units))}
	for _, uv := range w.Units {
		out.Versions[uv.Unit] = uv.Version
	}
	return out
}

// RejoinReplyToWire encodes a Rejoin reply.
func RejoinReplyToWire(m RejoinReply) wire.PeerRejoinReply {
	out := wire.PeerRejoinReply{Clock: m.Clock}
	for _, ru := range m.Units {
		out.Units = append(out.Units, wire.PeerRejoinUnit{
			Unit: ru.Unit, Version: ru.Version, Force: ru.Force, Base: dbToWire(ru.Base),
		})
	}
	return out
}

// RejoinReplyFromWire decodes a Rejoin reply.
func RejoinReplyFromWire(w wire.PeerRejoinReply) RejoinReply {
	out := RejoinReply{Clock: w.Clock}
	for _, ru := range w.Units {
		out.Units = append(out.Units, RejoinUnit{
			Unit: ru.Unit, Version: ru.Version, Force: ru.Force, Base: dbFromWire(ru.Base),
		})
	}
	return out
}

// JoinToWire encodes a JoinSite handshake phase.
func JoinToWire(m JoinSite) wire.PeerJoin {
	return wire.PeerJoin{
		Site: m.Site, Round: m.Round.Seq, Clock: m.Clock,
		Addr: m.Addr, Phase: m.Phase,
	}
}

// JoinFromWire decodes a JoinSite handshake phase. The round is keyed by
// the joining site (it coordinates its own admission).
func JoinFromWire(w wire.PeerJoin) JoinSite {
	return JoinSite{
		Round: RoundID{Site: w.Site, Seq: w.Round}, Clock: w.Clock,
		Site: w.Site, Addr: w.Addr, Phase: w.Phase,
	}
}

// JoinReplyToWire encodes a JoinSite reply.
func JoinReplyToWire(m JoinReply) wire.PeerJoinReply {
	out := wire.PeerJoinReply{Clock: m.Clock, Epoch: m.Epoch}
	for _, u := range m.Units {
		out.Units = append(out.Units, wire.PeerJoinUnit{
			Unit: u.Unit, Version: u.Version, Base: dbToWire(u.Base),
		})
	}
	return out
}

// JoinReplyFromWire decodes a JoinSite reply.
func JoinReplyFromWire(w wire.PeerJoinReply) JoinReply {
	out := JoinReply{Clock: w.Clock, Epoch: w.Epoch}
	for _, u := range w.Units {
		out.Units = append(out.Units, JoinUnit{
			Unit: u.Unit, Version: u.Version, Base: dbFromWire(u.Base),
		})
	}
	return out
}

// DrainToWire encodes a DrainSite announcement.
func DrainToWire(m DrainSite) wire.PeerDrain {
	return wire.PeerDrain{Site: m.Site, Clock: m.Clock}
}

// DrainFromWire decodes a DrainSite announcement.
func DrainFromWire(w wire.PeerDrain) DrainSite {
	return DrainSite{Site: w.Site, Clock: w.Clock}
}

func drainReplyToWire(m DrainReply) wire.PeerDrainReply {
	return wire.PeerDrainReply{Clock: m.Clock, Epoch: m.Epoch}
}

func drainReplyFromWire(w wire.PeerDrainReply) DrainReply {
	return DrainReply{Clock: w.Clock, Epoch: w.Epoch}
}

func opToWire(op lia.RelOp) string {
	switch op {
	case lia.LE:
		return "<="
	case lia.LT:
		return "<"
	default:
		return "=="
	}
}

func opFromWire(s string) (lia.RelOp, error) {
	switch s {
	case "<=":
		return lia.LE, nil
	case "<":
		return lia.LT, nil
	case "==":
		return lia.EQ, nil
	}
	return 0, fmt.Errorf("fabric: unknown constraint op %q", s)
}

// ConstraintsToWire encodes a local treaty's constraint list in the form
// install-treaties bodies and the WAL's treaty records both carry.
func ConstraintsToWire(l treaty.Local) []wire.PeerConstraint {
	out := make([]wire.PeerConstraint, 0, len(l.Constraints))
	for _, c := range l.Constraints {
		pc := wire.PeerConstraint{Const: c.Const, Op: opToWire(c.Op)}
		if len(c.Terms) > 0 {
			pc.Coeffs = make(map[string]int64, len(c.Terms))
		}
		for _, t := range c.Terms {
			pc.Coeffs[string(t.Obj)] = t.Coeff
		}
		out = append(out, pc)
	}
	return out
}

// ConstraintsFromWire decodes a wire constraint list back into a local
// treaty for the given site (the inverse of ConstraintsToWire on a canonical
// treaty): each constraint's terms in ascending object order, a zero
// coefficient dropped.
func ConstraintsFromWire(site int, cs []wire.PeerConstraint) (treaty.Local, error) {
	out := treaty.Local{Site: site, Constraints: make([]treaty.Constraint, 0, len(cs))}
	for _, pc := range cs {
		op, err := opFromWire(pc.Op)
		if err != nil {
			return treaty.Local{}, err
		}
		c := treaty.Constraint{Const: pc.Const, Op: op}
		if n := len(pc.Coeffs); n > 0 {
			c.Terms = make([]treaty.Term, 0, n)
		}
		for name, coeff := range pc.Coeffs {
			if coeff != 0 {
				c.Terms = append(c.Terms, treaty.Term{Obj: lang.ObjID(name), Coeff: coeff})
			}
		}
		slices.SortFunc(c.Terms, treaty.TermOrder)
		out.Constraints = append(out.Constraints, c)
	}
	return out, nil
}

// InstallTreatiesToWire encodes an InstallTreaties message.
func InstallTreatiesToWire(m InstallTreaties) wire.PeerInstallTreaties {
	out := wire.PeerInstallTreaties{
		From: m.Round.Site, Round: m.Round.Seq, Clock: m.Clock, Site: m.Site,
	}
	for _, ut := range m.Units {
		out.Units = append(out.Units, wire.PeerUnitTreaty{
			Unit: ut.Unit, Version: ut.Version, Constraints: ConstraintsToWire(ut.Local),
		})
	}
	return out
}

// InstallTreatiesFromWire decodes an InstallTreaties message.
func InstallTreatiesFromWire(w wire.PeerInstallTreaties) (InstallTreaties, error) {
	out := InstallTreaties{
		Round: RoundID{Site: w.From, Seq: w.Round}, Clock: w.Clock, Site: w.Site,
	}
	for _, ut := range w.Units {
		l, err := ConstraintsFromWire(w.Site, ut.Constraints)
		if err != nil {
			return out, fmt.Errorf("unit %d: %w", ut.Unit, err)
		}
		out.Units = append(out.Units, UnitTreaty{Unit: ut.Unit, Version: ut.Version, Local: l})
	}
	return out, nil
}
