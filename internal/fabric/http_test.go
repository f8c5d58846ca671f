package fabric_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/fabric/codec"
	"repro/internal/fabric/fabrictest"
	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/rt"
	"repro/internal/rtlive"
	"repro/internal/treaty"
)

// TestHTTPMessagesCountOnePerMessage: Messages counts each remote send
// once (the self site's message is a call, not a request).
func TestHTTPMessagesCountOnePerMessage(t *testing.T) {
	live := rtlive.New(1)
	nodes := []*fabrictest.StubNode{{Site: 0}, {Site: 1}, {Site: 2}}
	peers := []string{"http://invalid.localhost:0", "", ""}
	for k := 1; k < 3; k++ {
		srv := httptest.NewServer(fabric.NewPeerHandler(nodes[k], nil, ""))
		defer srv.Close()
		peers[k] = srv.URL
	}
	tr := fabric.NewHTTP(live, 0, peers, nodes[0], nil)
	exec(t, live, func(p rt.Proc) {
		if err := tr.Install(p, 0, fabric.InstallState{Round: fabric.RoundID{Seq: 1}}); err != nil {
			t.Errorf("Install: %v", err)
		}
		if _, err := tr.Rejoin(p, 1, fabric.Rejoin{Site: 1}); err != nil {
			t.Errorf("Rejoin: %v", err)
		}
	})
	// Install reaches sites 1 and 2; Rejoin from site 1 reaches only site 2.
	if got := tr.Messages.Load(); got != 3 {
		t.Errorf("Messages = %d after 3 remote sends", got)
	}
}

// postPeer posts a raw body to a peer endpoint and returns the status
// and the decoded error envelope (zero on a 200).
func postPeer(t *testing.T, url, contentType string, body io.Reader) (int, wire.Error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope wire.ErrorResponse
	if resp.StatusCode != http.StatusOK {
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("refusal content type %q, want the JSON error envelope", ct)
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Errorf("refusal body is not the error envelope: %v", err)
		}
	}
	return resp.StatusCode, envelope.Error
}

// TestPeerRefusals: the peer surface reads one encoding. A JSON body, a
// body in another format version, a body over the size bound (declared
// or not) and a body posted to the wrong endpoint are each refused with
// the JSON error envelope before the node sees anything. The bound holds in
// the other direction too: a 200 reply over it, declared or never-ending,
// fails the message without being buffered.
func TestPeerRefusals(t *testing.T) {
	node := &fabrictest.StubNode{Site: 1}
	srv := httptest.NewServer(fabric.NewPeerHandler(node, nil, ""))
	defer srv.Close()
	collect, err := codec.AppendMessage(nil, &wire.PeerCollect{From: 0, Round: 1, Objs: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), collect...)
	v1[1] = 1
	// A well-formed header followed by padding: only its size is wrong.
	huge := append(append([]byte(nil), collect...), make([]byte, 16<<20)...)
	for _, tc := range []struct {
		name, contentType string
		body              io.Reader
		status            int
		code, mentions    string
	}{
		{"JSON body", "application/json", strings.NewReader(`{"from":0,"round":1,"objs":["x"]}`),
			415, "unsupported_media_type", codec.ContentType},
		{"JSON body under the codec content type", codec.ContentType, strings.NewReader(`{"from":0,"round":1}`),
			400, "bad_request", "0x7b"},
		{"version-1 header", codec.ContentType, bytes.NewReader(v1),
			400, "bad_request", "format version 1, this build reads only version 2"},
		{"install-state body on /collect", codec.ContentType, bytes.NewReader(mustEncode(t, &wire.PeerInstallState{Round: 1})),
			400, "bad_request", "kind"},
		{"over the bound, declared", codec.ContentType, bytes.NewReader(huge),
			413, "too_large", "16777216"},
		{"over the bound, chunked", codec.ContentType, io.MultiReader(bytes.NewReader(huge)), // hides the length
			413, "too_large", "16777216"},
	} {
		status, e := postPeer(t, srv.URL+"/v1/peer/collect", tc.contentType, tc.body)
		if status != tc.status || e.Code != tc.code || !strings.Contains(e.Message, tc.mentions) {
			t.Errorf("%s: %d %q %q, want %d %q mentioning %q", tc.name, status, e.Code, e.Message, tc.status, tc.code, tc.mentions)
		}
	}
	// A Content-Length that understates the body: the server reads the
	// declared prefix only (a truncated message, 400) and never the rest.
	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/peer/collect HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		codec.ContentType, len(collect)-1)
	go conn.Write(huge) // the server may hang up mid-write; the reply is what is checked
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("understated Content-Length: status %d, want 400", resp.StatusCode)
	}
	if cs, _, _, _ := node.Snapshot(); len(cs) != 0 {
		t.Errorf("the node handled %d collects from refused requests", len(cs))
	}
	// The same bytes, sent properly, are served.
	if status, _ := postPeer(t, srv.URL+"/v1/peer/collect", codec.ContentType, bytes.NewReader(collect)); status != 200 {
		t.Errorf("well-formed collect after the refusals: status %d", status)
	}

	// Whatever answers at a peer's address is read to the bound and no
	// further: a declared body one byte over it, and a chunked one that
	// only ends when the reader hangs up.
	ack := mustEncode(t, &wire.PeerAck{Clock: 1})
	for _, tc := range []struct {
		name  string
		reply func(rw http.ResponseWriter)
	}{
		{"over the bound, declared", func(rw http.ResponseWriter) {
			rw.Header().Set("Content-Length", fmt.Sprint(len(huge)+1))
			_, _ = rw.Write(huge)
			_, _ = rw.Write(ack[:1])
		}},
		{"never-ending", func(rw http.ResponseWriter) {
			for chunk := make([]byte, 64<<10); ; rw.(http.Flusher).Flush() {
				if _, err := rw.Write(chunk); err != nil {
					return
				}
			}
		}},
	} {
		babbler := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", codec.ContentType)
			tc.reply(rw)
		}))
		live := rtlive.New(1)
		tr := fabric.NewHTTP(live, 0, []string{"http://unused.invalid", babbler.URL}, &fabrictest.StubNode{}, nil)
		var err error
		exec(t, live, func(p rt.Proc) { err = tr.Install(p, 0, fabric.InstallState{}) })
		if err == nil || !strings.Contains(err.Error(), "install-state") || !strings.Contains(err.Error(), "16777216") {
			t.Errorf("reply %s: err = %v, want a failure naming the endpoint and the bound", tc.name, err)
		}
		babbler.Close()
	}
}

func mustEncode(t *testing.T, m any) []byte {
	t.Helper()
	b, err := codec.AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// copyNode is a stub that keeps of a message only what a Node may keep:
// the footprint and the folded values, which a handler reads and lets go
// of, it copies before recording them.
type copyNode struct{ *fabrictest.StubNode }

func (n copyNode) CollectState(m fabric.CollectState) (fabric.StateReply, error) {
	m.Objs = slices.Clone(m.Objs)
	return n.StubNode.CollectState(m)
}

func (n copyNode) InstallState(m fabric.InstallState) error {
	m.Objs, m.Folded = slices.Clone(m.Objs), m.Folded.Clone()
	return n.StubNode.InstallState(m)
}

// scribbling sets fabric.ScratchHook for the rest of the test.
func scribbling(t *testing.T, hook func(...any)) {
	fabric.ScratchHook = hook
	t.Cleanup(func() { fabric.ScratchHook = nil })
}

// TestReuseIsInvisible: back-to-back exchanges of different shapes through
// one pooled call and one served-request scratch per endpoint (one process
// talking to one peer, one message at a time) leave nothing of the earlier
// message in the later one, on either side — with the scratch as the last
// message left it, and with it scribbled over in between.
func TestReuseIsInvisible(t *testing.T) {
	for _, mode := range []struct {
		name string
		hook func(...any)
	}{{"as left", nil}, {"scribbled", fabrictest.Scribble}} {
		t.Run(mode.name, func(t *testing.T) {
			scribbling(t, mode.hook)
			live := rtlive.New(1)
			self, peer := &fabrictest.StubNode{Site: 0}, &fabrictest.StubNode{Site: 1}
			srv := httptest.NewServer(fabric.NewPeerHandler(copyNode{peer}, nil, ""))
			defer srv.Close()
			tr := fabric.NewHTTP(live, 0, []string{"http://unused.invalid", srv.URL}, self, nil)
			same := func(what string, got, want any) {
				t.Helper()
				if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
					t.Errorf("%s:\n got %s\nwant %s", what, g, w)
				}
			}

			collect := func(clock int64, units []int, objs ...lang.ObjID) {
				t.Helper()
				m := fabric.CollectState{Round: fabric.RoundID{Seq: uint64(clock)}, Clock: clock, Units: units, Objs: objs}
				var replies []fabric.StateReply
				var err error
				exec(t, live, func(p rt.Proc) { replies, err = tr.Collect(p, 0, func() fabric.CollectState { return m }) })
				if err != nil {
					t.Fatalf("collect %d: %v", clock, err)
				}
				cs, _, _, _ := peer.Snapshot()
				same("collect as the peer saw it", cs[len(cs)-1], m)
				want, _ := (&fabrictest.StubNode{Site: 1}).CollectState(m)
				same("collect reply", replies[1], want)
			}
			collect(1, []int{3, 5}, "stock_1", "s", "a_longer_object_name")
			collect(2, []int{1}, "z")
			peer.CollectErr = fabric.ErrBusy
			exec(t, live, func(p rt.Proc) {
				_, err := tr.Collect(p, 0, func() fabric.CollectState { return fabric.CollectState{Objs: []lang.ObjID{"busy"}} })
				if !errors.Is(err, fabric.ErrBusy) {
					t.Errorf("collect at a busy peer: %v", err)
				}
			})
			peer.CollectErr = nil
			collect(3, []int{2, 4, 6}, "after", "busy")

			install := func(m fabric.InstallState) {
				t.Helper()
				var err error
				exec(t, live, func(p rt.Proc) { err = tr.Install(p, 0, m) })
				if err != nil {
					t.Fatalf("install %d: %v", m.Clock, err)
				}
				_, is, _, _ := peer.Snapshot()
				got := is[len(is)-1]
				if (got.Winner == nil) != (m.Winner == nil) {
					t.Fatalf("install %d: winner %+v, sent %+v", m.Clock, got.Winner, m.Winner)
				}
				if m.Winner != nil {
					same("winner", *got.Winner, *m.Winner)
				}
				got.Winner, m.Winner = nil, nil
				same("install as the peer saw it", got, m)
			}
			install(fabric.InstallState{Clock: 4, Objs: []lang.ObjID{"a", "b", "c"}, Folded: lang.Database{"a": 1, "b": -2, "c": 3},
				Winner: &fabric.WinnerCommit{Class: "Order", Args: []int64{1, 2}, Site: 0, Units: []int{0, 1}, Log: []int64{9}}})
			install(fabric.InstallState{Clock: 5, Objs: []lang.ObjID{"d"}, Folded: lang.Database{"d": 4}})
			install(fabric.InstallState{Clock: 6, Objs: []lang.ObjID{"a"}, Folded: lang.Database{"a": 5},
				Winner: &fabric.WinnerCommit{Class: "Pay", Args: []int64{7}, Site: 0}})

			distribute := func(clock int64, constraints ...treaty.Constraint) {
				t.Helper()
				ms := make([]fabric.InstallTreaties, 2)
				for k := range ms {
					ms[k] = fabric.InstallTreaties{Clock: clock, Site: k, Units: []fabric.UnitTreaty{{
						Unit: int(clock), Version: clock, Local: treaty.Local{Site: k, Constraints: constraints},
					}}}
				}
				var err error
				exec(t, live, func(p rt.Proc) { err = tr.Distribute(p, 0, ms) })
				if err != nil {
					t.Fatalf("distribute %d: %v", clock, err)
				}
				_, _, ts, _ := peer.Snapshot()
				same("treaties as the peer saw them", ts[len(ts)-1], ms[1])
			}
			distribute(7,
				treaty.Constraint{Terms: []treaty.Term{{Obj: "a@d1", Coeff: 1}, {Obj: "b@d1", Coeff: -2}, {Obj: "c@d1", Coeff: 3}}, Const: -20, Op: lia.LE},
				treaty.Constraint{Terms: []treaty.Term{{Obj: "a@d1", Coeff: -1}}, Const: 4, Op: lia.LT})
			distribute(8)
			distribute(9, treaty.Constraint{Terms: []treaty.Term{{Obj: "z@d1", Coeff: 5}}, Const: 1, Op: lia.EQ})
			distribute(10, treaty.Constraint{Const: -1, Op: lia.LE})
		})
	}
}

// TestPoolsKeepNothingLarge: an exchange far over wire.MaxPooledBuf in
// both directions is served, and neither the call that carried it nor the
// scratch that served it is seen again: every buffer handed back afterwards
// is a small one.
func TestPoolsKeepNothingLarge(t *testing.T) {
	var mu sync.Mutex
	largest := 0
	scribbling(t, func(scratch ...any) {
		mu.Lock()
		defer mu.Unlock()
		for _, v := range scratch {
			if b, ok := v.([]byte); ok {
				largest = max(largest, cap(b))
			}
		}
	})
	live := rtlive.New(1)
	self, peer := &fabrictest.StubNode{Site: 0}, &fabrictest.StubNode{Site: 1}
	srv := httptest.NewServer(fabric.NewPeerHandler(peer, nil, ""))
	defer srv.Close()
	tr := fabric.NewHTTP(live, 0, []string{"http://unused.invalid", srv.URL}, self, nil)
	collect := func(n int) {
		t.Helper()
		objs := make([]lang.ObjID, n)
		for i := range objs {
			objs[i] = lang.ObjID(fmt.Sprintf("a_fairly_long_object_name_%06d", i))
		}
		var replies []fabric.StateReply
		var err error
		exec(t, live, func(p rt.Proc) {
			replies, err = tr.Collect(p, 0, func() fabric.CollectState { return fabric.CollectState{Objs: objs} })
		})
		if err != nil || len(replies[1].Values) != n {
			t.Fatalf("collect of %d objects: %d values, %v", n, len(replies[1].Values), err)
		}
	}
	collect(8000)
	mu.Lock()
	if largest <= 2*wire.MaxPooledBuf {
		t.Fatalf("the large exchange grew no buffer past %d bytes: the test is not testing", largest)
	}
	largest = 0
	mu.Unlock()
	for i := 0; i < 16; i++ {
		collect(2)
	}
	mu.Lock()
	defer mu.Unlock()
	if largest > wire.MaxPooledBuf {
		t.Errorf("a buffer of %d bytes came back after the large exchange; pools keep at most %d", largest, wire.MaxPooledBuf)
	}
}

// TestConcurrentScatters: rounds that overlap — each parked in its own
// scatter while the others run — through one transport and one handler per
// peer get their own replies and deliver their own messages. Run under
// -race.
func TestConcurrentScatters(t *testing.T) {
	live := rtlive.New(1)
	nodes := []*fabrictest.StubNode{{Site: 0}, {Site: 1}, {Site: 2}}
	peers := []string{"http://unused.invalid", "", ""}
	for k := 1; k < 3; k++ {
		srv := httptest.NewServer(fabric.NewPeerHandler(copyNode{nodes[k]}, nil, ""))
		defer srv.Close()
		peers[k] = srv.URL
	}
	tr := fabric.NewHTTP(live, 0, peers, nodes[0], nil)
	const procs, rounds = 8, 25
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		wg.Add(1)
		live.Spawn(id, func(p rt.Proc) {
			defer wg.Done()
			objs := []lang.ObjID{lang.ObjID(fmt.Sprintf("obj_of_%d", id)), lang.ObjID(strings.Repeat("x", id+1))}
			for r := 0; r < rounds; r++ {
				m := fabric.CollectState{Round: fabric.RoundID{Site: id, Seq: uint64(r)}, Clock: int64(1000*id + r), Units: []int{id}, Objs: objs}
				replies, err := tr.Collect(p, 0, func() fabric.CollectState { return m })
				if err != nil {
					t.Errorf("proc %d round %d: %v", id, r, err)
					return
				}
				for k, n := range nodes {
					want, _ := (&fabrictest.StubNode{Site: n.Site}).CollectState(m)
					if replies[k].Clock != want.Clock || !replies[k].Values.Equal(want.Values) {
						t.Errorf("proc %d round %d site %d: reply %+v, want %+v", id, r, k, replies[k], want)
					}
				}
				if err := tr.Install(p, 0, fabric.InstallState{Round: m.Round, Clock: m.Clock, Objs: objs, Folded: lang.Database{objs[0]: int64(id)}}); err != nil {
					t.Errorf("proc %d round %d install: %v", id, r, err)
				}
			}
		})
	}
	wg.Wait()
	for k, n := range nodes {
		cs, is, _, _ := n.Snapshot()
		if len(cs) != procs*rounds || len(is) != procs*rounds {
			t.Fatalf("site %d handled %d collects and %d installs, want %d of each", k, len(cs), len(is), procs*rounds)
		}
		for _, m := range is {
			if id := m.Round.Site; len(m.Folded) != 1 || m.Folded[lang.ObjID(fmt.Sprintf("obj_of_%d", id))] != int64(id) {
				t.Errorf("site %d: install of round %v carries %v", k, m.Round, m.Folded)
			}
		}
	}
}
