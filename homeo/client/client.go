// Package client is the Go client for the /v1 wire protocol served by
// homeo/httpapi (cmd/homeostasis-serve). It pools connections, retries
// retryable failures (HTTP 429/503 and transport errors) with jittered
// exponential backoff, and decodes the structured error envelope into
// *APIError values. The serving binary's -drive closed loop is built on
// it, so external users and the load driver share one code path.
//
// Submit is the call every commit makes and RegisterClass the call every
// registration makes, so they build nothing per call that does not change
// between calls: the URLs and the header set are made once in New, the
// request and reply go through the homeo/wire codec instead of
// encoding/json, and the request value, its body reader and both buffers
// come from a pool (see internal/httpcall, the pooled POST the site fabric
// makes too). Every other method pays for http.NewRequest and encoding/json.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/homeo/wire"
	"repro/internal/httpcall"
)

// APIError is a non-2xx response's structured error.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable error code (wire.Error.Code).
	Code string
	// Message is human-readable detail.
	Message string
	// RetryAfter is the server's Retry-After hint on 429/503 responses
	// (zero when absent). The client waits this long before retrying,
	// instead of its computed backoff.
	RetryAfter time.Duration
}

// Error renders the HTTP status and the server-reported message.
func (e *APIError) Error() string {
	return fmt.Sprintf("homeo api: %d %s: %s", e.Status, e.Code, e.Message)
}

// Retryable reports whether the request can safely be retried: the
// server refused it before execution (backpressure or draining).
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Options tunes the client.
type Options struct {
	// HTTPClient overrides the pooled default.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call including the first (default 4;
	// 1 disables retries).
	MaxAttempts int
	// RetryBase is the first backoff delay (default 25ms); successive
	// delays double, each jittered uniformly over [0.5x, 1.5x].
	RetryBase time.Duration
	// MaxDelay caps every backoff delay, jitter included (default 2s).
	// Without a cap the doubling overflows time.Duration once the
	// attempt count shifts RetryBase past 63 bits.
	MaxDelay time.Duration
	// PeerToken, when set, is sent as the X-Homeo-Peer-Token header on
	// every request; the /v1/peer/* introspection endpoints of a
	// token-protected multi-process cluster require it.
	PeerToken string
	// Seed seeds the jitter stream (0 uses a time-derived seed).
	Seed int64
}

// Client talks /v1 to one server.
type Client struct {
	base string
	hc   *http.Client
	opts Options

	// What every POST /v1/txn and every POST /v1/classes shares, built
	// once: the two URLs (or why the base URL does not parse), the header
	// set, and a pool of calls for each of the two.
	txnURL, classURL *url.URL
	urlErr           error
	header           http.Header
	txnCalls         sync.Pool
	classCalls       sync.Pool

	mu  sync.Mutex
	rng *rand.Rand
}

// wallClock is the package's sole sanctioned wall-clock source (jitter
// seeding only; nothing protocol-visible derives from it).
var wallClock = time.Now //homeo:wallclock sole clock construction site

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts Options) *Client {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 25 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 2 * time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		seed = wallClock().UnixNano()
	}
	hc := opts.HTTPClient
	if hc == nil {
		// A pooled transport sized for closed-loop drivers: many
		// concurrent clients against one host.
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	c := &Client{
		base:   strings.TrimSuffix(baseURL, "/"),
		hc:     hc,
		opts:   opts,
		rng:    rand.New(rand.NewSource(seed)),
		header: http.Header{},
	}
	c.setHeaders(c.header, true)
	c.txnURL = c.parse("/v1/txn")
	c.classURL = c.parse("/v1/classes")
	c.txnCalls.New, c.classCalls.New = newCall, newCall
	return c
}

// parse returns the URL of path at the server, recording why there is none.
func (c *Client) parse(path string) *url.URL {
	u, err := url.Parse(c.base + path)
	if err != nil {
		c.urlErr = err
	}
	return u
}

func newCall() any {
	k := new(httpcall.Call)
	k.Init()
	return k
}

// setHeaders puts on h what every request of this client carries.
func (c *Client) setHeaders(h http.Header, body bool) {
	if body {
		h.Set("Content-Type", "application/json")
	}
	if c.opts.PeerToken != "" {
		h.Set("X-Homeo-Peer-Token", c.opts.PeerToken)
	}
}

// backoff returns the jittered delay before attempt n (0-based), capped
// at MaxDelay. The shift is overflow-guarded: past the cap (or past the
// representable range) the delay saturates instead of wrapping negative.
func (c *Client) backoff(n int) time.Duration {
	d := c.opts.MaxDelay
	if n < 62 {
		if shifted := c.opts.RetryBase << n; shifted > 0 && shifted < d {
			d = shifted
		}
	}
	c.mu.Lock()
	f := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	if d = time.Duration(float64(d) * f); d > c.opts.MaxDelay {
		d = c.opts.MaxDelay
	}
	return d
}

// retry runs try until it succeeds, fails for good, or the attempt budget
// is spent. try reports whether its failure may be retried: the server
// refused the request before executing it, or the transport failed (the
// driver's workloads are safe to resubmit; callers needing at-most-once
// set MaxAttempts to 1).
func (c *Client) retry(ctx context.Context, try func() (retryable bool, err error)) error {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			// The server's Retry-After hint wins over computed backoff
			// (parseRetryAfter bounds it so a bogus header cannot stall).
			delay := c.backoff(attempt - 1)
			var ae *APIError
			if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
				delay = ae.RetryAfter
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("homeo api: %w (last error: %v)", ctx.Err(), lastErr)
			case <-time.After(delay):
			}
		}
		retryable, err := try()
		if err == nil || !retryable {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("homeo api: giving up after %d attempts: %w", c.opts.MaxAttempts, lastErr)
}

// retryable reports whether a decoded response is a refusal the server
// invites the client to retry.
func retryable(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Retryable()
}

// do performs one JSON round trip with retries. A nil out discards the
// response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		payload, err = json.Marshal(in)
		if err != nil {
			return err
		}
	}
	return c.retry(ctx, func() (bool, error) {
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return false, err
		}
		c.setHeaders(req.Header, payload != nil)
		resp, err := c.hc.Do(req)
		if err != nil {
			return true, err
		}
		err = decodeResponse(resp, out)
		return retryable(err), err
	})
}

// send makes one attempt at the call k.Payload was encoded for. A nil
// error means a 2xx answer, read to its end into k.Reply.
//
//homeo:hotpath
func (c *Client) send(ctx context.Context, k *httpcall.Call, u *url.URL) (retry bool, err error) {
	resp, err := k.Send(ctx, c.hc, u, c.header)
	if err != nil {
		return true, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		err = decodeResponse(resp, nil)
		return retryable(err), err
	}
	if err = k.ReadReply(resp, 0); err != nil {
		return false, decodeError(k.Status, err)
	}
	return false, nil
}

// done puts an answered call, its reply decoded, back where it came from.
//
//homeo:release sync.Pool
func done(pool *sync.Pool, k *httpcall.Call) {
	if k.Reusable() {
		pool.Put(k)
	}
}

// submitOnce makes one attempt at a transaction.
//
//homeo:hotpath
func (c *Client) submitOnce(ctx context.Context, req *wire.TxnRequest, res *wire.TxnResult) (retry bool, err error) {
	// Put back only by the answered attempt at the end; see httpcall.Call.
	k := c.txnCalls.Get().(*httpcall.Call)
	k.Payload = wire.AppendTxnRequest(k.Payload[:0], req)
	if retry, err = c.send(ctx, k, c.txnURL); err != nil {
		//homeo:leak failed in transit or refused: net/http may still read the body
		return retry, err
	}
	if err = wire.ParseTxnResult(k.Reply, res); err != nil {
		return false, decodeError(k.Status, err)
	}
	done(&c.txnCalls, k)
	return false, nil
}

// registerOnce makes one attempt at a registration.
func (c *Client) registerOnce(ctx context.Context, spec *wire.ClassRequest, info *wire.ClassInfo) (retry bool, err error) {
	k := c.classCalls.Get().(*httpcall.Call)
	k.Payload = wire.AppendClassRequest(k.Payload[:0], spec)
	if retry, err = c.send(ctx, k, c.classURL); err != nil {
		//homeo:leak failed in transit or refused: net/http may still read the body
		return retry, err
	}
	if err = wire.ParseClassInfo(k.Reply, info); err != nil {
		return false, decodeError(k.Status, err)
	}
	done(&c.classCalls, k)
	return false, nil
}

func decodeError(status int, err error) error {
	return fmt.Errorf("homeo api: decoding %d response: %w", status, err)
}

// decodeResponse decodes a 2xx body into out or a non-2xx body into an
// *APIError.
func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return decodeError(resp.StatusCode, err)
		}
		return nil
	}
	var envelope wire.ErrorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp)}
	if err := json.Unmarshal(data, &envelope); err != nil || envelope.Error.Code == "" {
		apiErr.Code = "internal"
		apiErr.Message = strings.TrimSpace(string(data))
		return apiErr
	}
	apiErr.Code = envelope.Error.Code
	apiErr.Message = envelope.Error.Message
	return apiErr
}

// parseRetryAfter reads a delay-seconds Retry-After header (the only form
// the server emits), capped at 30s so a bogus header cannot stall a
// caller.
func parseRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// RegisterClass registers a transaction class (POST /v1/classes): the
// server parses the L or SQL source, analyzes it, and generates treaties
// online.
func (c *Client) RegisterClass(ctx context.Context, spec wire.ClassRequest) (wire.ClassInfo, error) {
	var info wire.ClassInfo
	if c.urlErr != nil {
		return info, c.urlErr
	}
	err := c.retry(ctx, func() (bool, error) { return c.registerOnce(ctx, &spec, &info) })
	return info, err
}

// RegisterClassBatch registers several classes in one atomic request:
// every class installs or none does. One installation sweep covers the
// whole batch, so registering N classes costs far less than N single
// registrations.
func (c *Client) RegisterClassBatch(ctx context.Context, specs []wire.ClassRequest) ([]wire.ClassInfo, error) {
	var resp wire.ClassBatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/classes", wire.ClassEnvelope{Batch: specs}, &resp)
	return resp.Classes, err
}

// ListClasses lists registered classes (GET /v1/classes).
func (c *Client) ListClasses(ctx context.Context) ([]wire.ClassInfo, error) {
	var resp wire.ClassListResponse
	err := c.do(ctx, http.MethodGet, "/v1/classes", nil, &resp)
	return resp.Classes, err
}

// Submit invokes one transaction (POST /v1/txn). A nil error means the
// server executed the submission; inspect res.Committed and res.Error for
// the transaction's own outcome (aborted/timeout/livelocked). Queue
// overflow (429) is retried with backoff and surfaces as *APIError when
// the budget runs out.
//
//homeo:hotpath
func (c *Client) Submit(ctx context.Context, req wire.TxnRequest) (wire.TxnResult, error) {
	var res wire.TxnResult
	if c.urlErr != nil {
		return res, c.urlErr
	}
	err := c.retry(ctx, func() (bool, error) { return c.submitOnce(ctx, &req, &res) })
	return res, err
}

// PeerLog fetches the server process's commit log (GET /v1/peer/log),
// for merged replay checks across a multi-process cluster.
func (c *Client) PeerLog(ctx context.Context) (wire.LogResponse, error) {
	var resp wire.LogResponse
	err := c.do(ctx, http.MethodGet, "/v1/peer/log", nil, &resp)
	return resp, err
}

// PeerDB fetches the server process's authoritative database partition
// (GET /v1/peer/db).
func (c *Client) PeerDB(ctx context.Context) (wire.PartitionResponse, error) {
	var resp wire.PartitionResponse
	err := c.do(ctx, http.MethodGet, "/v1/peer/db", nil, &resp)
	return resp, err
}

// Topology fetches the server process's membership view (GET
// /v1/topology): epoch, per-site status, and peer addresses.
func (c *Client) Topology(ctx context.Context) (wire.TopologyResponse, error) {
	var resp wire.TopologyResponse
	err := c.do(ctx, http.MethodGet, "/v1/topology", nil, &resp)
	return resp, err
}

// DrainSite asks the server process to drain the given site (POST
// /v1/topology/drain) — on a multi-process cluster, its own site. The
// call returns when the drain completes (deltas absorbed, membership
// broadcast done).
func (c *Client) DrainSite(ctx context.Context, site int) (wire.TopologyAck, error) {
	var ack wire.TopologyAck
	err := c.do(ctx, http.MethodPost, "/v1/topology/drain", wire.DrainRequest{Site: site}, &ack)
	return ack, err
}

// Stats fetches a snapshot (GET /v1/stats).
func (c *Client) Stats(ctx context.Context) (wire.Stats, error) {
	var st wire.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}
