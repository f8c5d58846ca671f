package homeo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/httpapi"
	"repro/homeo/wire"
)

// harnessRegClass is the ledger's registration stream (benchmark/gen.go,
// regClass): the i-th registered class, a guarded purchase whose two
// constants derive from shape, so two classes are isomorphic to the
// analysis exactly when their shapes are equal.
func harnessRegClass(i int, shape int64) wire.ClassRequest {
	floor, refill := shape, 100+shape
	return wire.ClassRequest{
		L: fmt.Sprintf("transaction Reg%d(n) { v := read(item%d); if (v - n > %d) then write(item%d = v - n) else write(item%d = v - n + %d) }",
			i, i, floor, i, i, refill),
		Bounds:  map[string][2]int64{"n": {1, 3}},
		Initial: map[string]int64{fmt.Sprintf("item%d", i): floor + refill},
	}
}

func harnessRegSpec(i int, shape int64) homeo.ClassSpec {
	r := harnessRegClass(i, shape)
	return homeo.ClassSpec{L: r.L, Bounds: r.Bounds, Initial: r.Initial}
}

// novelRegShape and up are shapes one class only has: registering one
// misses the analysis cache.
const novelRegShape = 1000

// BenchmarkRegisterPath takes a registration apart at the boundaries it
// crosses, as BenchmarkCommitPath does a commit, on the ledger's Reg<i>
// classes:
//
//   - ClientRoundTrip: client.RegisterClass over a RoundTripper that
//     answers from memory.
//   - HandleClasses: the POST /v1/classes handler on a live cluster,
//     called directly with a reused request and response writer; every
//     class repeats one shape.
//   - RegisterHit, RegisterMiss: Cluster.Register on a live cluster, of a
//     shape seen before and of a shape of its own.
//
// CI gates allocs/op against the values recorded in
// BENCH_registration.json (+20 %); ns/op is informational. Run serially.
func BenchmarkRegisterPath(b *testing.B) {
	b.Run("ClientRoundTrip", benchRegisterRoundTrip)
	b.Run("HandleClasses", benchHandleClasses)
	b.Run("RegisterHit", func(b *testing.B) { benchRegister(b, func(int) int64 { return 0 }) })
	b.Run("RegisterMiss", func(b *testing.B) { benchRegister(b, func(i int) int64 { return novelRegShape + int64(i) }) })
}

// classInfoReply is a 201 body as the server writes it: indented, with
// the encoder's trailing newline.
func classInfoReply(tb testing.TB, info wire.ClassInfo) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(info); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func benchRegisterRoundTrip(b *testing.B) {
	reply := classInfoReply(b, wire.ClassInfo{Name: "Reg7", Params: []string{"n"}, Objects: []string{"item7"},
		Treaties: []string{"site 0: -item7 + -item7@d0 + 4 <= 0", "site 1: -item7@d1 + -2 <= 0"}})
	cl := client.New("http://register.path", client.Options{
		MaxAttempts: 1,
		HTTPClient:  &http.Client{Transport: cannedTransport{reply: reply}},
	})
	ctx := context.Background()
	spec := harnessRegClass(7, 0)
	register := func() {
		if info, err := cl.RegisterClass(ctx, spec); err != nil || info.Name != "Reg7" || len(info.Treaties) != 2 {
			b.Fatalf("register: %+v, %v", info, err)
		}
	}
	for i := 0; i < 64; i++ {
		register()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		register()
	}
}

// registerCluster is the cluster the ledger's register workload boots,
// warmed with the recurring shape.
func registerCluster(tb testing.TB) *homeo.Cluster {
	tb.Helper()
	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeLive, Sites: 2,
		LocalExecTime: time.Nanosecond, CPUPerSite: 64, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	for i := 0; i < 64; i++ {
		if _, err := c.Register(harnessRegSpec(i, 0)); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

func benchHandleClasses(b *testing.B) {
	c := registerCluster(b)
	h := httpapi.NewHandler(c)
	// Bodies are prebuilt so the loop times the handler alone.
	bodies := make([][]byte, b.N)
	for i := range bodies {
		body, err := json.Marshal(harnessRegClass(64+i, 0))
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	var rd bytes.Reader
	req, err := http.NewRequest(http.MethodPost, "/v1/classes", nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Body = io.NopCloser(&rd)
	rw := &replyRecorder{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(bodies[i])
		req.ContentLength = int64(len(bodies[i]))
		rw.status = 0
		h.ServeHTTP(rw, req)
		if rw.status != http.StatusCreated {
			b.Fatalf("handler answered %d", rw.status)
		}
	}
}

func benchRegister(b *testing.B, shape func(i int) int64) {
	c := registerCluster(b)
	// Specs are prebuilt so the loop times Register alone.
	specs := make([]homeo.ClassSpec, b.N)
	for i := range specs {
		specs[i] = harnessRegSpec(64+i, shape(64+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Register(specs[i]); err != nil {
			b.Fatal(err)
		}
	}
}
