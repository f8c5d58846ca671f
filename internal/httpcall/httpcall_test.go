package httpcall

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/homeo/wire"
)

// TestReusable is the pooling rule of both users of a Call, homeo/client
// and internal/fabric: only a call that was answered 2xx and read to the
// end, with buffers no pool should shrink from, may be used again. One
// whose attempt failed in transit, was refused, answered too long or grew
// past wire.MaxPooledBuf is left to the collector.
func TestReusable(t *testing.T) {
	var status int
	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.WriteHeader(status)
		_, _ = rw.Write(body)
	}))
	defer srv.Close()
	u, err := url.Parse(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	header := http.Header{"Content-Type": {"text/plain"}}
	attempt := func(k *Call, max int64) error {
		t.Helper()
		resp, err := k.Send(context.Background(), srv.Client(), u, header)
		if err != nil {
			return err
		}
		return k.ReadReply(resp, max)
	}
	fresh := func() *Call {
		k := new(Call)
		k.Init()
		k.Payload = append(k.Payload, "ping"...)
		return k
	}

	k := fresh()
	if k.Reusable() {
		t.Error("a call that was never sent is reusable")
	}
	status, body = http.StatusOK, []byte("pong")
	if err := attempt(k, 0); err != nil || string(k.Reply) != "pong" || !k.Reusable() {
		t.Fatalf("answered 200: err %v, reply %q, reusable %v", err, k.Reply, k.Reusable())
	}
	// The same call again: the second answer replaces the first.
	body = []byte("p")
	if err := attempt(k, 8); err != nil || string(k.Reply) != "p" || !k.Reusable() {
		t.Fatalf("answered 200 again: err %v, reply %q, reusable %v", err, k.Reply, k.Reusable())
	}

	status, body = http.StatusConflict, []byte("busy")
	if err := attempt(k, 0); err != nil || k.Status != http.StatusConflict || k.Reusable() {
		t.Errorf("answered 409: err %v, status %d, reusable %v", err, k.Status, k.Reusable())
	}

	status, body = http.StatusOK, []byte("123456789")
	k = fresh()
	if err := attempt(k, 8); !errors.Is(err, ErrReplyTooLong) || k.Reusable() {
		t.Errorf("9 bytes under a bound of 8: err %v, reusable %v", err, k.Reusable())
	}
	if err := attempt(k, 9); err != nil || !k.Reusable() {
		t.Errorf("9 bytes under a bound of 9: err %v, reusable %v", err, k.Reusable())
	}

	k = fresh()
	resp, err := k.Send(context.Background(), srv.Client(), u, header)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if k.Reusable() {
		t.Error("a call whose answer was not read is reusable")
	}

	dead, err := url.Parse("http://127.0.0.1:1/x") // nothing listens on port 1
	if err != nil {
		t.Fatal(err)
	}
	k = fresh()
	if _, err := k.Send(context.Background(), srv.Client(), dead, header); err == nil || k.Reusable() {
		t.Errorf("failed in transit: err %v, reusable %v", err, k.Reusable())
	}

	body = bytes.Repeat([]byte("x"), wire.MaxPooledBuf+1)
	k = fresh()
	if err := attempt(k, 0); err != nil || len(k.Reply) != len(body) || k.Reusable() {
		t.Errorf("a reply over MaxPooledBuf: err %v, %d bytes, reusable %v", err, len(k.Reply), k.Reusable())
	}
	body = []byte("pong")
	k = fresh()
	k.Payload = bytes.Repeat([]byte("x"), wire.MaxPooledBuf+1)
	if err := attempt(k, 0); err != nil || k.Reusable() {
		t.Errorf("a payload over MaxPooledBuf: err %v, reusable %v", err, k.Reusable())
	}
}

// TestSendStartsFromTheCallersHeaders: what a transport added to the last
// attempt's header map is gone from the next, and the body is sent whole
// each time.
func TestSendStartsFromTheCallersHeaders(t *testing.T) {
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		b, _ := io.ReadAll(req.Body)
		got = append(got, req.Header.Get("X-Added")+"|"+req.Header.Get("X-Mine")+"|"+string(b))
	}))
	defer srv.Close()
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	k := new(Call)
	k.Init()
	for i, payload := range []string{"first", "2nd"} {
		k.Payload = append(k.Payload[:0], payload...)
		k.header.Set("X-Added", "stale") // as a cookie jar would
		resp, err := k.Send(context.Background(), srv.Client(), u, http.Header{"X-Mine": {"yes"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.ReadReply(resp, 0); err != nil {
			t.Fatal(err)
		}
		if want := "|yes|" + payload; got[i] != want {
			t.Errorf("attempt %d arrived as %q, want %q", i, got[i], want)
		}
	}
}

// TestRedirectResendsTheWholeBody: a POST that net/http has to send a
// second time — here after a 307, which keeps method and body — gets the
// payload again whole from GetBody, not what the first send left of it.
func TestRedirectResendsTheWholeBody(t *testing.T) {
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		b, _ := io.ReadAll(req.Body)
		got = append(got, req.URL.Path+"|"+string(b))
		if req.URL.Path == "/moved" {
			http.Redirect(rw, req, "/here", http.StatusTemporaryRedirect)
		}
	}))
	defer srv.Close()
	u, err := url.Parse(srv.URL + "/moved")
	if err != nil {
		t.Fatal(err)
	}
	k := new(Call)
	k.Init()
	k.Payload = append(k.Payload[:0], "the payload"...)
	resp, err := k.Send(context.Background(), srv.Client(), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.ReadReply(resp, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "/here|the payload" || k.Status != http.StatusOK {
		t.Fatalf("the server saw %q, status %d; want the payload again at /here", got, k.Status)
	}
}
