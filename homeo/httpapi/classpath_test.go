package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/wire"
	"repro/internal/lia"
	"repro/internal/logic"
)

var update = flag.Bool("update", false, "rewrite testdata/classes_seed1.golden from what the handler answers")

// ledgerRegistrations is the first n requests of the ledger's register
// workload for a seed (benchmark/gen.go, regGen): nine in ten repeat one
// of eight recurring shapes, one in ten, at a seeded place, has a shape of
// its own.
func ledgerRegistrations(seed int64, n int) []wire.ClassRequest {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 7))
	out := make([]wire.ClassRequest, n)
	novel := 0
	for i := range out {
		if i%10 == 0 {
			novel = rng.Intn(10)
		}
		var shape int64
		switch {
		case i < 8:
			shape = int64(i)
		case i%10 == novel:
			shape = 1000 + int64(i)
		default:
			shape = int64(rng.Intn(8))
		}
		floor, refill := shape, 100+shape
		out[i] = wire.ClassRequest{
			L: fmt.Sprintf("transaction Reg%d(n) { v := read(item%d); if (v - n > %d) then write(item%d = v - n) else write(item%d = v - n + %d) }",
				i, i, floor, i, i, refill),
			Bounds:  map[string][2]int64{"n": {1, 3}},
			Initial: map[string]int64{fmt.Sprintf("item%d", i): floor + refill},
		}
	}
	return out
}

// TestClassesRepliesGolden: what POST /v1/classes answers, status and
// body, to the ledger's seed-1 registration stream and to the requests
// around it that take the other ways through the handler — refusals, an
// SQL class with rows, a batch, bodies only encoding/json reads — is byte
// for byte what the handler answered when encoding/json read every body
// and wrote every reply. The golden file was written by this test, with
// -update, at the parent of the commit that gave the handler its codec.
func TestClassesRepliesGolden(t *testing.T) {
	_, _, srv, _ := newServer(t, homeo.Options{Sites: 2, LocalExecTime: time.Nanosecond, CPUPerSite: 64, Seed: 1})
	var bodies []string
	for _, req := range ledgerRegistrations(1, 150) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	sql, _ := json.Marshal(wire.ClassRequest{Name: "Restock",
		SQL:    "CREATE TABLE inv (sku, qty) SIZE 2\nUPDATE inv SET qty = qty + @d WHERE sku = @k",
		Bounds: map[string][2]int64{"d": {1, 2}, "k": {1, 2}}, Rows: map[string][][]int64{"inv": {{1, 5}, {2, 7}}}})
	batch, _ := json.Marshal(wire.ClassEnvelope{Batch: ledgerRegistrations(1, 153)[150:]})
	bodies = append(bodies,
		bodies[3],                          // the source names a class already registered
		`{"name":"Reg5","l":"irrelevant"}`, // the name does
		`{"name":"Other","l":"transaction Mine(n) { v := read(mine); write(mine = v + n) }"}`,
		`{"l":"transaction Broken(n) { v := read(b; write(b = v) }"}`,
		`{"l":"transaction NoObjects(n) { skip }"}`,
		`{"l":"transaction Unbounded(n) { v := read(u); if (v - n > 0) then write(u = v - n) else skip }","initial":{"u":9}}`,
		`{"l":"transaction Multi(n) {\n\tv := read(m); // a comment, a tab, a <\n\tif (v < n && n >= 1) then write(m = v + n) else skip\n}","bounds":{"n":[1,2]}}`,
		`{"L":"transaction Folded(n) { v := read(f); write(f = v + n) }","Initial":{"f":1},"note":"ignored"}`,
		`{"l":"transaction Late(n) { v := read(late); write(late = v + n) }"} trailing bytes`,
		`{"l":"transaction Wide(n) { v := read(w); write(w = v + n) }","bounds":{"n":[1,2,3]},"initial":{"w":1.0}}`,
		`{"l":"transaction Frac(n) { v := read(fr); write(fr = v + n) }","initial":{"fr":1.5}}`,
		`{"l":"x","bounds":{"zz":[0,1]}}`, `{"l":"transaction K(n) { v := read(k); write(k = v + n) }","bounds":{"zz":[0,1]}}`,
		``, ` `, `{}`, `null`, `[]`, `{"l":`, `garbage`, `{"l":5}`, `{"sql":"CREATE TABLE t (a) SIZE 1"}`,
		string(sql), string(sql), string(batch), string(batch), `{"batch":[{"l":"transaction InBatch() { skip }"}]}`,
	)

	var got bytes.Buffer
	for i, body := range bodies {
		resp, data := post(t, srv.URL+"/v1/classes", body)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("request %d: Content-Type %q", i, ct)
		}
		fmt.Fprintf(&got, "== %d: %d\n%s", i, resp.StatusCode, data)
	}
	const golden = "testdata/classes_seed1.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := bytes.SplitAfter(got.Bytes(), []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
		for i := 0; i < len(g) && i < len(w); i++ {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("replies differ from %s at line %d:\n got %q\nwant %q", golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("replies differ from %s in length: %d lines, want %d", golden, len(g), len(w))
	}
}

// TestGoldenTreatiesRenderAsReference: every treaty the golden file holds
// for the ledger's registration stream is rendered from the flat
// treaty.Local; the same treaty carried over to map-backed lia.Constraints
// and rendered by lia — the rendering the golden file was written with —
// gives the same bytes, and those bytes are in the file.
func TestGoldenTreatiesRenderAsReference(t *testing.T) {
	c, _, srv, _ := newServer(t, homeo.Options{Sites: 2, LocalExecTime: time.Nanosecond, CPUPerSite: 64, Seed: 1})
	for _, req := range ledgerRegistrations(1, 150) {
		body, _ := json.Marshal(req)
		if resp, data := post(t, srv.URL+"/v1/classes", string(body)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("registration refused: %d %s", resp.StatusCode, data)
		}
	}
	golden, err := os.ReadFile("testdata/classes_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	sys := c.System()
	treaties := 0
	for u := range sys.Units {
		for _, l := range sys.UnitLocals(u) {
			ref := fmt.Appendf(nil, "site %d: ", l.Site)
			for i, fc := range l.Constraints {
				term := lia.NewTerm()
				term.Const = fc.Const
				for _, ft := range fc.Terms {
					term.AddVar(logic.Obj(ft.Obj), ft.Coeff)
				}
				if i > 0 {
					ref = append(ref, " && "...)
				}
				ref = lia.Constraint{Term: term, Op: fc.Op}.AppendTo(ref)
			}
			if got := l.AppendTo(nil); !bytes.Equal(got, ref) {
				t.Fatalf("unit %d: flat rendering %q, reference %q", u, got, ref)
			}
			quoted, _ := json.Marshal(string(ref))
			if !bytes.Contains(golden, quoted) {
				t.Fatalf("unit %d: %s is not in the golden file", u, quoted)
			}
			treaties++
		}
	}
	if treaties != 300 {
		t.Errorf("%d treaties compared, want two for each of 150 classes", treaties)
	}
}

// TestClientAgainstPlainJSONClassesHandler: the codec-backed RegisterClass
// against a server that reads and writes with encoding/json the way the
// handler used to (a streaming decoder, an indenting encoder). The server
// decodes what the caller sent, the client what the server answered.
func TestClientAgainstPlainJSONClassesHandler(t *testing.T) {
	var got wire.ClassEnvelope
	reply := wire.ClassInfo{Name: "Reg7", Params: []string{"n"}, Objects: []string{"item7"},
		Treaties: []string{"site 0: -item7 + -item7@d0 + 4 <= 0", "site 1: -item7@d1 + -2 <= 0"}}
	status := http.StatusCreated
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		got = wire.ClassEnvelope{}
		if ct := req.Header.Get("Content-Type"); ct != "application/json" || req.URL.Path != "/v1/classes" {
			t.Errorf("request to %s with Content-Type %q", req.URL.Path, ct)
		}
		if err := json.NewDecoder(req.Body).Decode(&got); err != nil {
			t.Errorf("request body does not decode: %v", err)
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(status)
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		if status == http.StatusCreated {
			_ = enc.Encode(reply)
		} else {
			_ = enc.Encode(wire.ErrorResponse{Error: wire.Error{Code: "conflict", Message: "class \"Reg7\" already registered"}})
		}
	}))
	defer srv.Close()
	cl := client.New(srv.URL+"/", client.Options{MaxAttempts: 1})
	ctx := context.Background()
	reqs := ledgerRegistrations(1, 8)
	reqs = append(reqs,
		wire.ClassRequest{Name: "Multi", L: "transaction Multi(a, b) {\n\tskip // é <&>\n}", Bounds: map[string][2]int64{"b": {-1, 1}, "a": {0, 9}}},
		wire.ClassRequest{Name: "Q", SQL: "CREATE TABLE t (k, v) SIZE 1\nDELETE FROM t WHERE k = @k", Rows: map[string][][]int64{"t": {{1, 2}}}})
	for i, sent := range reqs { // every call after the first reuses pooled state
		info, err := cl.RegisterClass(ctx, sent)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.ClassRequest, sent) || got.Batch != nil {
			t.Fatalf("request %d: server decoded %+v, sent %+v", i, got, sent)
		}
		if !reflect.DeepEqual(info, reply) {
			t.Fatalf("request %d: client decoded %+v, server sent %+v", i, info, reply)
		}
	}
	// A reply only encoding/json reads: outside ASCII, with a member the
	// codec does not know.
	reply = wire.ClassInfo{Name: "Café", Pinned: true, PinReason: "symbolic table: \u2028 é"}
	if info, err := cl.RegisterClass(ctx, reqs[0]); err != nil || !reflect.DeepEqual(info, reply) {
		t.Fatalf("client decoded %+v (error %v), server sent %+v", info, err, reply)
	}
	status = http.StatusConflict
	var ae *client.APIError
	if _, err := cl.RegisterClass(ctx, reqs[0]); !errors.As(err, &ae) || ae.Status != 409 || ae.Code != "conflict" {
		t.Fatalf("409 reply: %v", err)
	}
}

// TestConcurrentRegistrationsSharePools: registrations from several
// goroutines share the client's pooled calls and the handler's pooled
// scratch — buffers, decoded maps — and every one is answered with its own
// class. Run under -race.
func TestConcurrentRegistrationsSharePools(t *testing.T) {
	c, _, _, cl := newServer(t, homeo.Options{})
	reqs := ledgerRegistrations(3, 8*25)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * 25; i < (g+1)*25; i++ {
				info, err := cl.RegisterClass(context.Background(), reqs[i])
				name, obj := fmt.Sprintf("Reg%d", i), fmt.Sprintf("item%d", i)
				if err != nil || info.Name != name || len(info.Objects) != 1 || info.Objects[0] != obj ||
					len(info.Treaties) != 2 || !strings.Contains(info.Treaties[0], obj) {
					t.Errorf("goroutine %d class %d: %+v, %v", g, i, info, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(c.Classes()); n != len(reqs) {
		t.Fatalf("%d classes registered, want %d", n, len(reqs))
	}
	// The initial values the pooled maps carried reached the right objects.
	values := c.Partition().Values
	for _, req := range reqs {
		for obj, want := range req.Initial {
			if got, ok := values[obj]; !ok || got != want {
				t.Fatalf("%s = %d (installed: %v), registered with %d", obj, got, ok, want)
			}
		}
	}
}
