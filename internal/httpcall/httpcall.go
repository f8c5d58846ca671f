// Package httpcall is the pooled POST that homeo/client (a commit, a
// registration) and internal/fabric (a peer message) both make: the part of
// a request that does not change between calls is built once and the part
// that does lives in buffers the next call reuses, so a POST costs what
// net/http charges for it and nothing more.
package httpcall

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"

	"repro/homeo/wire"
)

// Call is one POST being made: the request net/http sends, the header map
// and body reader that request points to, the encoded message, and the
// buffer the reply is read into. Calls are pooled by their users, each next
// to whatever else it reuses from call to call; Init prepares a new one.
//
// A call goes back to its pool only from an attempt that was answered 2xx
// and read to the end (see Reusable): the server has then consumed the
// request, so nothing in net/http still reads the body. After any other
// outcome the transport may not have finished with the request, and the
// call is left to the collector.
type Call struct {
	req    http.Request // never sent itself: WithContext copies it for each attempt
	header http.Header
	body   bytes.Reader
	limit  io.LimitedReader

	// Payload is the encoded message Send posts.
	Payload []byte
	// Reply is the answer's body, once ReadReply has read it.
	Reply []byte
	// Status is the answer's HTTP status, once Send has returned one.
	Status int
	// read says Reply holds the whole of the body.
	read bool
}

// ErrReplyTooLong is ReadReply's refusal of a body longer than its bound.
var ErrReplyTooLong = errors.New("httpcall: reply exceeds the bound")

// Init makes k ready for its first Send.
func (k *Call) Init() {
	k.header = make(http.Header, 4)
	k.req = http.Request{
		Method:     http.MethodPost,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     k.header,
		Body:       io.NopCloser(&k.body),
		GetBody:    k.getBody,
	}
}

// getBody gives net/http a second copy of the body, for a redirect or for
// resending on a fresh connection.
func (k *Call) getBody() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(k.Payload)), nil
}

// Send makes one attempt at posting k.Payload to u with exactly the given
// header set. A nil error means the server answered: Status is set and the
// response is returned with its body unread, for ReadReply or, after a
// refusal, for the caller to decode and close.
//
//homeo:hotpath
func (k *Call) Send(ctx context.Context, hc *http.Client, u *url.URL, header http.Header) (*http.Response, error) {
	k.Status, k.read = 0, false
	k.req.URL, k.req.Host = u, u.Host
	k.body.Reset(k.Payload)
	k.req.ContentLength = int64(len(k.Payload))
	// A transport may have added to the header map of the attempt that
	// last used this call (a cookie jar does); every attempt starts from
	// the caller's own set.
	clear(k.header)
	for name, v := range header {
		k.header[name] = v
	}
	resp, err := hc.Do(k.req.WithContext(ctx))
	if err != nil {
		return nil, err
	}
	k.Status = resp.StatusCode
	return resp, nil
}

// ReadReply reads the answer's body to its end into k.Reply and closes it.
// A positive max bounds the body: one longer than max bytes, however it is
// framed, fails with ErrReplyTooLong once max+1 bytes of it have been read.
//
//homeo:hotpath
func (k *Call) ReadReply(resp *http.Response, max int64) error {
	var body io.Reader = resp.Body
	if max > 0 {
		k.limit = io.LimitedReader{R: resp.Body, N: max + 1}
		body = &k.limit
	}
	var err error
	k.Reply, err = wire.ReadBody(k.Reply, body)
	k.limit.R = nil
	_ = resp.Body.Close() // read to the end, failed or abandoned: nothing left to report
	if err != nil {
		return err
	}
	if max > 0 && int64(len(k.Reply)) > max {
		return ErrReplyTooLong
	}
	k.read = true
	return nil
}

// Reusable reports whether k may go back to a pool: its last attempt was
// answered 2xx and the answer read to its end, and neither buffer outgrew
// wire.MaxPooledBuf (one message of many megabytes must not pin as much for
// the life of the process).
func (k *Call) Reusable() bool {
	return k.read && k.Status >= 200 && k.Status < 300 &&
		cap(k.Payload) <= wire.MaxPooledBuf && cap(k.Reply) <= wire.MaxPooledBuf
}

// ReadRequest is the serving side's read of a pooled POST: the request
// body, which may be at most limit bytes, over buf. A body of declared
// length is bounded by the declaration; only one of unknown length needs
// http.MaxBytesReader. A body over the limit fails with an
// *http.MaxBytesError.
func ReadRequest(rw http.ResponseWriter, req *http.Request, buf []byte, limit int64) ([]byte, error) {
	if req.Body == nil {
		return buf[:0], nil
	}
	if req.ContentLength > limit {
		return buf, &http.MaxBytesError{Limit: limit}
	}
	body := req.Body
	if req.ContentLength < 0 {
		body = http.MaxBytesReader(rw, body, limit)
	}
	return wire.ReadBody(buf, body)
}
