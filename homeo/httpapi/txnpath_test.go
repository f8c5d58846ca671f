package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/wire"
)

// post sends body to path as a plain net/http client would and returns
// the response with its body read.
func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPlainJSONClientAgainstHandler is the interop test in the direction
// of an old client: bodies written by encoding/json (compact, indented,
// with an envelope, with fields the scanner hands back to encoding/json)
// against the codec-backed handler, replies read by encoding/json.
func TestPlainJSONClientAgainstHandler(t *testing.T) {
	_, _, srv, cl := newServer(t, homeo.Options{})
	if _, err := cl.RegisterClass(context.Background(), wire.ClassRequest{L: depositSrc}); err != nil {
		t.Fatal(err)
	}
	site := 1
	req := wire.TxnRequest{Class: "Deposit", Args: []int64{7}, Site: &site}
	compact, _ := json.Marshal(req)
	indented, _ := json.MarshalIndent(wire.TxnEnvelope{TxnRequest: req}, "", "\t")
	for _, body := range []string{
		string(compact),
		string(indented) + "\n",
		`{"args":[7],"site":1,"class":"Deposit","timeout_ms":null}`,
		`{"class":"Deposit","args":[7],"site":1}`, // an escape: decoded by encoding/json
		`{"Class":"Deposit","ARGS":[7],"site":1}`, // case-folded keys: encoding/json's rule
		`{"class":"Deposit","args":[7],"site":1,"note":"ignored"}`,
	} {
		resp, data := post(t, srv.URL+"/v1/txn", body)
		var res wire.TxnResult
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("%s: reply %q does not decode: %v", body, data, err)
		}
		if resp.StatusCode != 200 || !res.Committed || res.Class != "Deposit" || res.Site != 1 ||
			len(res.Args) != 1 || res.Args[0] != 7 || res.Error != nil {
			t.Errorf("%s: status %d, result %+v", body, resp.StatusCode, res)
		}
		// The reply is exactly what json.Marshal makes of the result, sent
		// whole with its length.
		if want, _ := json.Marshal(res); !bytes.Equal(data, want) {
			t.Errorf("%s: reply %q is not the compact encoding %q", body, data, want)
		}
		if resp.ContentLength != int64(len(data)) {
			t.Errorf("%s: Content-Length %d for a reply of %d bytes", body, resp.ContentLength, len(data))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", body, ct)
		}
	}
	// The empty body still draws from the mix (here: the one class, which
	// wants an argument the draw supplies).
	if resp, data := post(t, srv.URL+"/v1/txn", ""); resp.StatusCode != 200 {
		t.Errorf("empty body: status %d, %s", resp.StatusCode, data)
	}
}

// TestClientAgainstPlainJSONHandler is the other direction: the codec-
// backed client against a server that reads and writes with encoding/json
// the way the handler used to (a streaming decoder, an indenting encoder).
func TestClientAgainstPlainJSONHandler(t *testing.T) {
	var got wire.TxnEnvelope
	reply := wire.TxnResult{Class: "Deposit", Args: []int64{5, -6}, Site: 1, Committed: true,
		Synced: true, LatencyMS: 2.5, Log: []int64{11}}
	status := http.StatusOK
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		got = wire.TxnEnvelope{}
		if ct := req.Header.Get("Content-Type"); ct != "application/json" || req.URL.Path != "/v1/txn" {
			t.Errorf("request to %s with Content-Type %q", req.URL.Path, ct)
		}
		if err := json.NewDecoder(req.Body).Decode(&got); err != nil {
			t.Errorf("request body does not decode: %v", err)
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(status)
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		if status == http.StatusOK {
			_ = enc.Encode(reply)
		} else {
			_ = enc.Encode(wire.ErrorResponse{Error: wire.Error{Code: "not_found", Message: "no such class"}})
		}
	}))
	defer srv.Close()
	cl := client.New(srv.URL+"/", client.Options{MaxAttempts: 1})
	ctx := context.Background()
	site := 1
	sent := wire.TxnRequest{Class: "Deposit", Args: []int64{5, -6}, Site: &site, TimeoutMS: 40}
	for i := 0; i < 3; i++ { // the second and third call reuse the first's pooled state
		res, err := cl.Submit(ctx, sent)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != "Deposit" || len(got.Args) != 2 || got.Args[1] != -6 || got.Site == nil || *got.Site != 1 ||
			got.TimeoutMS != 40 {
			t.Fatalf("server decoded %+v", got)
		}
		if res.Class != reply.Class || len(res.Args) != 2 || res.Site != 1 || !res.Committed || !res.Synced ||
			res.LatencyMS != 2.5 || len(res.Log) != 1 || res.Log[0] != 11 || res.Error != nil {
			t.Fatalf("client decoded %+v", res)
		}
	}
	// An executed-but-failed transaction: the error member sends the
	// reply through encoding/json on the client.
	reply.Committed, reply.Error = false, &wire.Error{Code: "aborted", Message: "lock <timeout>"}
	if res, err := cl.Submit(ctx, sent); err != nil || res.Error == nil || *res.Error != *reply.Error {
		t.Fatalf("failed transaction: %+v, %v", res, err)
	}
	status = http.StatusNotFound
	var ae *client.APIError
	if _, err := cl.Submit(ctx, sent); !errors.As(err, &ae) || ae.Status != 404 || ae.Code != "not_found" {
		t.Fatalf("404 reply: %v", err)
	}
}

// TestBodyLimits: /v1/txn refuses bodies over 1 MiB and /v1/classes over
// 16 MiB with 413 too_large, whether or not the length is declared, and
// accepts a body just under the bound.
func TestBodyLimits(t *testing.T) {
	_, _, srv, cl := newServer(t, homeo.Options{})
	if _, err := cl.RegisterClass(context.Background(), wire.ClassRequest{L: depositSrc}); err != nil {
		t.Fatal(err)
	}
	// Blank padding is valid JSON white space, so the padded bodies are
	// well-formed and only their size can be refused.
	// The padding sits inside the object: /v1/classes stops reading where
	// its first JSON value ends.
	pad := func(body string, size int) string {
		return body[:len(body)-1] + strings.Repeat(" ", size-len(body)) + "}"
	}
	txn := func(size int) string { return pad(`{"class":"Deposit","args":[1]}`, size) }
	class := func(size int) string {
		return pad(`{"l":"transaction Big(n) { v := read(big); write(big = v + n) }"}`, size)
	}
	for _, tc := range []struct {
		name, path, body string
		chunked          bool
		status           int
	}{
		{"txn at the bound", "/v1/txn", txn(1 << 20), false, 200},
		{"txn over, declared", "/v1/txn", txn(1<<20 + 1), false, 413},
		{"txn over, chunked", "/v1/txn", txn(1<<20 + 1), true, 413},
		{"txn at the bound, chunked", "/v1/txn", txn(1 << 20), true, 200},
		{"classes over, declared", "/v1/classes", class(16<<20 + 1), false, 413},
		{"classes over, chunked", "/v1/classes", class(16<<20 + 1), true, 413},
		{"classes at the bound", "/v1/classes", class(16 << 20), false, 201},
	} {
		var body io.Reader = strings.NewReader(tc.body)
		if tc.chunked {
			body = io.MultiReader(body) // hides the length: net/http sends it chunked
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var envelope wire.ErrorResponse
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		_ = json.Unmarshal(data, &envelope)
		if resp.StatusCode != tc.status || (tc.status == 413 && envelope.Error.Code != "too_large") {
			t.Errorf("%s: status %d, code %q, want %d", tc.name, resp.StatusCode, envelope.Error.Code, tc.status)
		}
	}
	// The server is still serving after the refusals.
	if res, err := cl.Submit(context.Background(), wire.TxnRequest{Class: "Deposit", Args: []int64{1}}); err != nil || !res.Committed {
		t.Fatalf("submit after refusals: %+v, %v", res, err)
	}
}

// TestConcurrentSubmitsSharePools drives the pooled request and reply
// state of both ends from many goroutines at once (run with -race), and
// checks every reply belongs to its own request.
func TestConcurrentSubmitsSharePools(t *testing.T) {
	c, _, _, cl := newServer(t, homeo.Options{EnableLog: true})
	ctx := context.Background()
	if _, err := cl.RegisterClass(ctx, wire.ClassRequest{L: depositSrc}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			site := g % 2
			for i := 0; i < 50; i++ {
				n := int64(g*1000 + i)
				res, err := cl.Submit(ctx, wire.TxnRequest{Class: "Deposit", Args: []int64{n}, Site: &site})
				if err != nil || !res.Committed || res.Site != site || len(res.Args) != 1 || res.Args[0] != n {
					t.Errorf("goroutine %d call %d: %+v, %v", g, i, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
}
