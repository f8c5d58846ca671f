package main

import (
	"bufio"
	"context"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in this package: spans are recorded around the
// calls into each layer (an http.RoundTripper under the client and under
// the site fabric, a middleware around the /v1 handler, and the engine's
// own reported latency), never inside the system under test. Spans stay
// in memory during the run and are written out once it is over.

// span is one timed call into a layer.
type span struct {
	ID, Parent uint64
	Req        uint64 // shared by every span one client request caused
	Name       string
	Start, End int64 // ns since epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names. A name's prefix is the layer that did the work.
const (
	spanSubmit    = "client.submit"
	spanRegister  = "client.register"
	spanRoundTrip = "nethttp.roundtrip"
	spanHandle    = "httpapi.handle"
	spanEngine    = "homeo.engine" // a commit that needed no round
	spanRound     = "homeo.round"  // a commit that paid a synchronization round
	spanPeerPfx   = "fabric."      // + the peer endpoint: collect, install-state, ...
	spanPeerServe = "fabric.peer_handler"

	hdrReq  = "X-Ledger-Req"
	hdrSpan = "X-Ledger-Span"
)

type tracer struct {
	on   atomic.Bool
	next atomic.Uint64

	mu    sync.Mutex
	spans []span

	peerMsgs, peerBytes atomic.Int64
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<20)}
}

// sampling reports whether a request starting now is traced: while the
// tracer is on, three seconds in every four. The untraced second gives the
// latency the tracing overhead is measured against, from the same stretch
// of the run, heap and connections.
func (t *tracer) sampling(now time.Time) bool {
	return t != nil && t.on.Load() && now.Sub(epoch)/time.Second%4 != 0
}

func (t *tracer) now() int64 { return int64(time.Since(epoch)) }
func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reqTrace follows one client request: the load loop creates it, the
// client-side transport fills in what the server's reply headers reveal,
// and the fabric transport of the executing site reads it to parent peer
// messages (a closed-loop client keeps one transaction in flight per
// site, so "the transaction in flight here" is unambiguous).
type reqTrace struct {
	req, root    uint64
	engine       uint64 // id reserved for the engine span; peer messages hang under it
	handler      uint64 // the server-side handler span, learned from the reply
	handlerStart int64
}

type traceKey struct{}

func (t *tracer) begin(ctx context.Context) (context.Context, *reqTrace) {
	rt := &reqTrace{req: t.id(), root: t.id(), engine: t.id()}
	return context.WithValue(ctx, traceKey{}, rt), rt
}

// tracedTransport records one span per HTTP round trip. Under a client it
// finds the request's trace in the context; as a site's fabric transport
// (inflight set) it adopts the transaction in flight at that site.
type tracedTransport struct {
	t        *tracer
	base     http.RoundTripper
	inflight *atomic.Pointer[reqTrace]
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	name := spanRoundTrip
	var rt *reqTrace
	var parent uint64
	if tt.inflight != nil {
		name = spanPeerPfx + req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:]
		if rt = tt.inflight.Load(); rt != nil {
			parent = rt.engine
		}
	} else if rt, _ = req.Context().Value(traceKey{}).(*reqTrace); rt != nil {
		parent = rt.root
	}
	if rt == nil {
		return tt.base.RoundTrip(req)
	}
	id := tt.t.id()
	// The request was built for this one attempt by the caller's client
	// and is not shared, so stamping it is safe.
	req.Header.Set(hdrReq, strconv.FormatUint(rt.req, 10))
	req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	start := tt.t.now()
	resp, err := tt.base.RoundTrip(req)
	tt.t.add(span{ID: id, Parent: parent, Req: rt.req, Name: name, Start: start, End: tt.t.now()})
	if err != nil {
		return resp, err
	}
	if tt.inflight != nil {
		tt.t.peerMsgs.Add(1)
		tt.t.peerBytes.Add(max(req.ContentLength, 0) + max(resp.ContentLength, 0))
	} else if h, at, ok := strings.Cut(resp.Header.Get(hdrSpan), ":"); ok {
		rt.handler, _ = strconv.ParseUint(h, 10, 64)
		rt.handlerStart, _ = strconv.ParseInt(at, 10, 64)
	}
	return resp, err
}

// middleware records the server-side span of every request that carries a
// trace, and tells the caller its id and start so the engine's reported
// latency can be drawn inside it.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		parent, err := strconv.ParseUint(req.Header.Get(hdrSpan), 10, 64)
		if err != nil || !t.on.Load() {
			next.ServeHTTP(rw, req)
			return
		}
		reqID, _ := strconv.ParseUint(req.Header.Get(hdrReq), 10, 64)
		name := spanHandle
		if strings.HasPrefix(req.URL.Path, "/v1/peer/") {
			name = spanPeerServe
		}
		id, start := t.id(), t.now()
		rw.Header().Set(hdrSpan, strconv.FormatUint(id, 10)+":"+strconv.FormatInt(start, 10))
		next.ServeHTTP(rw, req)
		t.add(span{ID: id, Parent: parent, Req: reqID, Name: name, Start: start, End: t.now()})
	})
}

// engineSpan records the engine's own account of a transaction. The
// engine reports a duration, not timestamps, so the span is drawn from
// its handler's start; it always fits, since the handler waited for it.
func (t *tracer) engineSpan(rt *reqTrace, latencyMS float64, synced bool) {
	name := spanEngine
	if synced {
		name = spanRound
	}
	t.add(span{ID: rt.engine, Parent: rt.handler, Req: rt.req, Name: name,
		Start: rt.handlerStart, End: rt.handlerStart + int64(latencyMS*float64(time.Millisecond))})
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may nest, overlap each other, or stick out of
// the parent; only their union inside the parent counts.
func selfTime(s span, children []span) int64 {
	kids := append([]span(nil), children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, edge := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.dur() - covered
}

// ledger turns the recorded spans into the per-layer timing metrics.
// Everything is a median over requests (or rounds, or peer messages);
// the commit-path lines use only commits that needed no round, so they
// read the same on every workload that has an HTTP path.
func ledger(spans []span) map[string]reading {
	kids := make(map[uint64][]span, len(spans))
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	child := func(of span, name string) (span, bool) {
		for _, k := range kids[of.ID] {
			if k.Name == name {
				return k, true
			}
		}
		return span{}, false
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	var total, clientSelf, netSelf, apiSelf, engine []float64
	var roundPeer, roundResidual, roundEngine []float64
	peerRT := map[string][]float64{}
	var peerAll, peerServe, peerSelf []float64

	for _, root := range spans {
		if root.Parent != 0 || !strings.HasPrefix(root.Name, "client.") {
			continue
		}
		rt, ok := child(root, spanRoundTrip)
		if !ok {
			continue
		}
		h, ok := child(rt, spanHandle)
		if !ok {
			continue
		}
		if r, ok := child(h, spanRound); ok {
			var sum int64
			for _, p := range kids[r.ID] {
				sum += p.dur()
				peerAll = append(peerAll, us(p.dur()))
				peerRT[p.Name] = append(peerRT[p.Name], us(p.dur()))
				peerSelf = append(peerSelf, us(selfTime(p, kids[p.ID])))
				if srv, ok := child(p, spanPeerServe); ok {
					peerServe = append(peerServe, us(srv.dur()))
				}
			}
			roundPeer = append(roundPeer, ms(sum))
			roundResidual = append(roundResidual, ms(r.dur()-sum))
			roundEngine = append(roundEngine, ms(r.dur()))
			continue
		}
		total = append(total, us(root.dur()))
		clientSelf = append(clientSelf, us(selfTime(root, kids[root.ID])))
		netSelf = append(netSelf, us(selfTime(rt, kids[rt.ID])))
		apiSelf = append(apiSelf, us(selfTime(h, kids[h.ID])))
		if e, ok := child(h, spanEngine); ok {
			engine = append(engine, us(e.dur()))
		}
	}

	med := func(vs []float64) reading {
		if len(vs) == 0 {
			return reading{} // the layer did no work on this workload
		}
		return reading{median(vs), len(vs)}
	}
	out := map[string]reading{
		"client.self_us":                med(clientSelf),
		"nethttp.self_us":               med(netSelf),
		"httpapi.self_us":               med(apiSelf),
		"homeo.engine_us":               med(engine),
		"ledger.traced_commit_p50_us":   med(total),
		"fabric.peer_rt_p50_us":         med(peerAll),
		"fabric.collect_p50_us":         med(peerRT[spanPeerPfx+"collect"]),
		"fabric.install_p50_us":         med(peerRT[spanPeerPfx+"install-state"]),
		"fabric.treaties_p50_us":        med(peerRT[spanPeerPfx+"install-treaties"]),
		"fabric.peer_handler_p50_us":    med(peerServe),
		"fabric.transport_self_us":      med(peerSelf),
		"fabric.round_peer_ms":          med(roundPeer),
		"homeostasis.round_residual_ms": med(roundResidual),
		"homeostasis.round_engine_ms":   med(roundEngine),
	}
	attributed := out["client.self_us"].value + out["nethttp.self_us"].value +
		out["httpapi.self_us"].value + out["homeo.engine_us"].value
	out["ledger.unattributed_us"] = reading{out["ledger.traced_commit_p50_us"].value - attributed, len(total)}
	return out
}

// writeJSONL writes the spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendUint(line, s.ID, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, s.Parent, 10)
		line = append(line, `,"req":`...)
		line = strconv.AppendUint(line, s.Req, 10)
		line = append(line, `,"name":"`...)
		line = append(line, s.Name...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
