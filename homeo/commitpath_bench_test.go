package homeo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/httpapi"
	"repro/homeo/wire"
)

// BenchmarkCommitPath takes the single-transaction commit path apart at
// the three boundaries a commit crosses above the engine, each with
// everything outside it replaced by something that costs (nearly)
// nothing, so allocs/op is the layer's own:
//
//   - ClientRoundTrip: client.Submit over a RoundTripper that answers
//     from memory (its canned http.Response is the remaining 3 allocs).
//   - HandleTxn: the /v1/txn handler on a live cluster, called directly
//     with a reused request and response writer.
//   - SubmitLive: Session.Submit on a live cluster with the smallest
//     service time, i.e. spawn, sleep, exec and the hand-back.
//
// CI gates allocs/op against the values recorded in BENCH_hotpath.json
// (+20 %); ns/op is informational. Run serially.
func BenchmarkCommitPath(b *testing.B) {
	b.Run("ClientRoundTrip", benchClientRoundTrip)
	b.Run("HandleTxn", benchHandleTxn)
	b.Run("SubmitLive", benchCommitSubmitLive)
}

// cannedTransport consumes the request and answers 200 with a fixed
// single-transaction reply.
type cannedTransport struct{ reply []byte }

func (t cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	_, _ = io.Copy(io.Discard, req.Body)
	_ = req.Body.Close()
	return &http.Response{
		StatusCode:    http.StatusOK,
		ContentLength: int64(len(t.reply)),
		Body:          io.NopCloser(bytes.NewReader(t.reply)),
		Request:       req,
	}, nil
}

func benchClientRoundTrip(b *testing.B) {
	reply, err := json.Marshal(wire.TxnResult{Class: "Deposit", Args: []int64{1}, Site: 1,
		Committed: true, LatencyMS: 0.0123})
	if err != nil {
		b.Fatal(err)
	}
	cl := client.New("http://commit.path", client.Options{
		MaxAttempts: 1,
		HTTPClient:  &http.Client{Transport: cannedTransport{reply: reply}},
	})
	ctx := context.Background()
	site := 1
	req := wire.TxnRequest{Class: "Deposit", Args: []int64{1}, Site: &site}
	submit := func() {
		if res, err := cl.Submit(ctx, req); err != nil || !res.Committed {
			b.Fatalf("submit: %+v, %v", res, err)
		}
	}
	for i := 0; i < 64; i++ {
		submit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
}

// commitCluster is benchCluster on the live runtime with the smallest
// service time: the default 2 ms sleep would drown the path under test.
func commitCluster(b *testing.B) (*homeo.Cluster, *homeo.TxnClass) {
	b.Helper()
	return benchCluster(b, homeo.Options{Runtime: homeo.RuntimeLive, LocalExecTime: time.Nanosecond, CPUPerSite: 64})
}

// replyRecorder is the least an http.ResponseWriter can be: it keeps the
// status and drops the body.
type replyRecorder struct {
	header http.Header
	status int
}

func (r *replyRecorder) Header() http.Header    { return r.header }
func (r *replyRecorder) WriteHeader(status int) { r.status = status }
func (r *replyRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return len(p), nil
}

func benchHandleTxn(b *testing.B) {
	c, _ := commitCluster(b)
	h := httpapi.NewHandler(c)
	body := []byte(`{"class":"Deposit","args":[1],"site":0}`)
	var rd bytes.Reader
	req, err := http.NewRequest(http.MethodPost, "/v1/txn", nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Body, req.ContentLength = io.NopCloser(&rd), int64(len(body))
	rw := &replyRecorder{header: http.Header{}}
	serve := func() {
		rd.Reset(body)
		rw.status = 0
		h.ServeHTTP(rw, req)
		if rw.status != http.StatusOK {
			b.Fatalf("handler answered %d", rw.status)
		}
	}
	for i := 0; i < 64; i++ {
		serve()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

func benchCommitSubmitLive(b *testing.B) {
	c, cls := commitCluster(b)
	sess, err := c.SessionAt(0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	submit := func() {
		if res, err := sess.Submit(ctx, cls, 1); err != nil || !res.Committed {
			b.Fatalf("submit: %+v, %v", res, err)
		}
	}
	for i := 0; i < 64; i++ {
		submit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
}
