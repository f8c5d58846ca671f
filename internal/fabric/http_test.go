package fabric_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/fabric/codec"
	"repro/internal/fabric/fabrictest"
	"repro/internal/rt"
	"repro/internal/rtlive"
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
// the JSON error envelope before the node sees anything.
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
}

func mustEncode(t *testing.T, m any) []byte {
	t.Helper()
	b, err := codec.AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
