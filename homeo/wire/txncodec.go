package wire

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// The codec of the commit path. POST /v1/txn carries one TxnRequest up
// and one TxnResult back for every transaction, so these two messages —
// and only these two — are written and read without encoding/json: the
// Append functions emit exactly the bytes json.Marshal would, and the
// Parse functions scan the canonical shape directly (an object of the
// known lower-case keys, each at most once, holding plain ASCII strings,
// integers, booleans, a number, integer arrays or null). Any other body —
// an error result, an unknown or repeated key, an escape, a fraction where
// an integer belongs, malformed JSON — is handed to encoding/json, which
// decides what it means or how it is wrong, so what is accepted and
// rejected stays what encoding/json accepts and rejects, with one
// exception: a request with a batch member, which encoding/json would
// ignore, is refused.

// AppendTxnRequest appends req as compact JSON, byte for byte what
// json.Marshal(req) returns.
//
//homeo:hotpath
func AppendTxnRequest(dst []byte, req *TxnRequest) []byte {
	dst = append(dst, '{')
	n := len(dst)
	if req.Class != "" {
		dst = append(dst, `"class":`...)
		dst = appendString(dst, req.Class)
	}
	if len(req.Args) > 0 {
		dst = appendInts(appendComma(dst, n), `"args":`, req.Args)
	}
	if req.Site != nil {
		dst = append(appendComma(dst, n), `"site":`...)
		dst = strconv.AppendInt(dst, int64(*req.Site), 10)
	}
	if req.TimeoutMS != 0 {
		dst = append(appendComma(dst, n), `"timeout_ms":`...)
		dst = strconv.AppendInt(dst, req.TimeoutMS, 10)
	}
	return append(dst, '}')
}

// AppendTxnResult appends res as compact JSON, byte for byte what
// json.Marshal(res) returns. A LatencyMS that is not finite, which
// json.Marshal refuses, is written as 0.
//
//homeo:hotpath
func AppendTxnResult(dst []byte, res *TxnResult) []byte {
	dst = append(dst, `{"class":`...)
	dst = appendString(dst, res.Class)
	if len(res.Args) > 0 {
		dst = appendInts(append(dst, ','), `"args":`, res.Args)
	}
	dst = append(dst, `,"site":`...)
	dst = strconv.AppendInt(dst, int64(res.Site), 10)
	dst = append(dst, `,"committed":`...)
	dst = strconv.AppendBool(dst, res.Committed)
	if res.Synced {
		dst = append(dst, `,"synced":true`...)
	}
	dst = append(dst, `,"latency_ms":`...)
	dst = appendFloat(dst, res.LatencyMS)
	if len(res.Log) > 0 {
		dst = appendInts(append(dst, ','), `"log":`, res.Log)
	}
	if res.Error != nil {
		dst = append(dst, `,"error":{"code":`...)
		dst = appendString(dst, res.Error.Code)
		dst = append(dst, `,"message":`...)
		dst = appendString(dst, res.Error.Message)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendComma separates a member from the one before it; n is the length
// dst had when the object was empty.
func appendComma(dst []byte, n int) []byte {
	if len(dst) > n {
		dst = append(dst, ',')
	}
	return dst
}

func appendInts(dst []byte, key string, vs []int64) []byte {
	dst = append(dst, key...)
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}

// appendFloat formats like encoding/json: ES6 number-to-string, with its
// exponent cutoffs and unpadded exponents.
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs > math.MaxFloat64 || f != f {
		return append(dst, '0')
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 is written e-9
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString quotes s like encoding/json with HTML escaping on (the
// json.Marshal default): control characters, quote, backslash, <, >, &,
// U+2028 and U+2029 are escaped, invalid UTF-8 becomes U+FFFD.
//
//homeo:hotpath
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ParseTxnRequest decodes a POST /v1/txn body into env, with the result
// json.Unmarshal gives except that an empty or all-blank body is the empty
// request. env is reset first, but the storage env.Args and env.Site point
// to on entry is written over and reused when the body has those members,
// and env.Class is kept when the body names the same class: a caller that
// pools env decodes a request without allocating. A body with a batch
// member — whatever its value or the case of its key — is refused and
// leaves env empty: the protocol has one transaction per
// request, and ignoring the member would run the empty request, a draw
// from the base workload's mix.
//
//homeo:hotpath
func ParseTxnRequest(data []byte, env *TxnEnvelope) error {
	class, args, site := env.Class, env.Args[:0], env.Site
	*env = TxnEnvelope{}
	s := scanner{data: data}
	if s.end() {
		return nil
	}
	if !s.txnRequest(&env.TxnRequest, class, args, site) {
		return unmarshalTxnRequest(data, env)
	}
	return nil
}

// ParseTxnResult decodes a POST /v1/txn reply for a single transaction
// into res, with the result json.Unmarshal gives into a zero TxnResult.
//
//homeo:hotpath
func ParseTxnResult(data []byte, res *TxnResult) error {
	*res = TxnResult{}
	s := scanner{data: data}
	if !s.txnResult(res) {
		return unmarshalTxnResult(data, res)
	}
	return nil
}

// The way out of the hot path, for every body the scanner does not take.
// Decoding into a local and copying keeps the caller's value from
// escaping to the heap through encoding/json's interface parameter on
// the calls that never get here.

func unmarshalTxnRequest(data []byte, env *TxnEnvelope) error {
	// One decode reads the request and finds a batch member: encoding/json
	// matches a key to a field named batch as the refusal must, in any
	// case and escaped or not. The type is named TxnEnvelope and embeds
	// TxnRequest as the exported one does, so that json words every error
	// as it does for a TxnEnvelope.
	type TxnEnvelope struct {
		TxnRequest
		Batch json.RawMessage `json:"batch"`
	}
	var v TxnEnvelope
	err := json.Unmarshal(data, &v)
	if err == nil && v.Batch != nil {
		v, err = TxnEnvelope{}, errBatch
	}
	env.TxnRequest = v.TxnRequest
	return err
}

// errBatch refuses a POST /v1/txn body with a batch member.
var errBatch = errors.New("a batch is not accepted: send one POST /v1/txn per transaction")

func unmarshalTxnResult(data []byte, res *TxnResult) error {
	var v TxnResult
	err := json.Unmarshal(data, &v)
	*res = v
	return err
}

// MaxPooledBuf is the largest buffer either end of POST /v1/txn takes
// back to its pool; a body that outgrew it leaves its buffer to the
// collector.
const MaxPooledBuf = 64 << 10

// ReadBody reads r to its end over buf[:0], growing buf only when the body
// does not fit: both ends of POST /v1/txn read into a pooled buffer.
func ReadBody(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scanner reads the canonical shape of the messages. Every method
// reports failure for anything it does not recognize, and the caller then
// starts over with encoding/json: a scanner never has to explain an
// error, only to be right when it succeeds.
type scanner struct {
	data []byte
	i    int
	seen uint // members of the message read so far
}

// skipBlank moves past JSON white space and returns the byte now at the
// cursor, 0 at the end of the input.
func (s *scanner) skipBlank() byte {
	for s.i < len(s.data) {
		switch c := s.data[s.i]; c {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return c
		}
	}
	return 0
}

// open consumes the opening brace of the message.
func (s *scanner) open() bool {
	if s.skipBlank() != '{' {
		return false
	}
	s.i++
	return true
}

// member moves to the next member of the message and returns its key with
// the cursor on the value, or done at the closing brace.
func (s *scanner) member() (key []byte, done, ok bool) {
	c := s.skipBlank()
	switch {
	case c == '}':
		s.i++
		return nil, true, true
	case s.seen == 0:
	case c == ',':
		s.i++
		c = s.skipBlank()
	default:
		return nil, false, false
	}
	if key, ok = s.plainString(); !ok || s.skipBlank() != ':' {
		return nil, false, false
	}
	s.i++
	s.skipBlank()
	return key, false, true
}

// end reports whether only white space is left.
func (s *scanner) end() bool {
	return s.skipBlank() == 0 && s.i == len(s.data)
}

// literal consumes word if the input continues with it.
func (s *scanner) literal(word string) bool {
	if len(s.data)-s.i < len(word) || string(s.data[s.i:s.i+len(word)]) != word {
		return false
	}
	s.i += len(word)
	return true
}

func (s *scanner) boolean() (v, ok bool) {
	if s.literal("true") {
		return true, true
	}
	return false, s.literal("false")
}

// plainString reads a string of printable ASCII with no escapes.
func (s *scanner) plainString() ([]byte, bool) {
	if s.i >= len(s.data) || s.data[s.i] != '"' {
		return nil, false
	}
	start := s.i + 1
	for j := start; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			s.i = j + 1
			return s.data[start:j], true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// integer reads a JSON number that is an integer in int64's range. What
// follows it is the caller's to check, so 1.5, 1e3 and 01 fail there.
func (s *scanner) integer() (int64, bool) {
	j := s.i
	neg := j < len(s.data) && s.data[j] == '-'
	if neg {
		j++
	}
	digits := j
	var n uint64
	for ; j < len(s.data) && s.data[j]-'0' <= 9; j++ {
		d := uint64(s.data[j] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if j == digits || (s.data[digits] == '0' && j > digits+1) {
		return 0, false
	}
	s.i = j
	switch {
	case neg && n <= 1<<63:
		return -int64(n), true
	case !neg && n <= math.MaxInt64:
		return int64(n), true
	}
	return 0, false
}

// number reads a JSON number as a float64.
func (s *scanner) number() (float64, bool) {
	digits := func(j int) int {
		for j < len(s.data) && s.data[j]-'0' <= 9 {
			j++
		}
		return j
	}
	j := s.i
	if j < len(s.data) && s.data[j] == '-' {
		j++
	}
	k := digits(j)
	if k == j || (s.data[j] == '0' && k > j+1) {
		return 0, false
	}
	if j = k; j < len(s.data) && s.data[j] == '.' {
		if k = digits(j + 1); k == j+1 {
			return 0, false
		}
		j = k
	}
	if j < len(s.data) && (s.data[j] == 'e' || s.data[j] == 'E') {
		j++
		if j < len(s.data) && (s.data[j] == '+' || s.data[j] == '-') {
			j++
		}
		if k = digits(j); k == j {
			return 0, false
		}
		j = k
	}
	f, err := strconv.ParseFloat(string(s.data[s.i:j]), 64)
	s.i = j
	return f, err == nil
}

// integers reads an array of integers, appending to dst[:0]. When dst is
// too small the array is sized once, from its commas.
//
//homeo:hotpath
func (s *scanner) integers(dst []int64) ([]int64, bool) {
	if s.i >= len(s.data) || s.data[s.i] != '[' {
		return nil, false
	}
	s.i++
	if s.skipBlank() == ']' {
		s.i++
		return dst, true
	}
	n := 1
	for _, c := range s.data[s.i:] {
		if c == ']' {
			break
		}
		if c == ',' {
			n++
		}
	}
	if cap(dst) < n {
		dst = make([]int64, 0, n)
	}
	for {
		s.skipBlank()
		v, ok := s.integer()
		if !ok {
			return nil, false
		}
		dst = append(dst, v)
		switch s.skipBlank() {
		case ',':
			s.i++
		case ']':
			s.i++
			return dst, true
		default:
			return nil, false
		}
	}
}

// The members of the messages (these two and the two of classcodec.go), as
// bits of the set already seen.
const (
	mClass = 1 << iota
	mArgs
	mSite
	mTimeout
	mCommitted
	mSynced
	mLatency
	mLog
	mName
	mL
	mBounds
	mInitial
	mParams
	mObjects
	mPinned
	mPinReason
	mTreaties

	requestMembers      = mClass | mArgs | mSite | mTimeout
	resultMembers       = mClass | mArgs | mSite | mCommitted | mSynced | mLatency | mLog
	classRequestMembers = mName | mL | mBounds | mInitial
	classInfoMembers    = mName | mParams | mObjects | mPinned | mPinReason | mTreaties
)

func memberBit(key []byte) uint {
	switch string(key) {
	case "class":
		return mClass
	case "args":
		return mArgs
	case "site":
		return mSite
	case "timeout_ms":
		return mTimeout
	case "committed":
		return mCommitted
	case "synced":
		return mSynced
	case "latency_ms":
		return mLatency
	case "log":
		return mLog
	case "name":
		return mName
	case "l":
		return mL
	case "bounds":
		return mBounds
	case "initial":
		return mInitial
	case "params":
		return mParams
	case "objects":
		return mObjects
	case "pinned":
		return mPinned
	case "pin_reason":
		return mPinReason
	case "treaties":
		return mTreaties
	}
	return 0 // batch, error, sql and rows among them
}

// value moves to the next member that has a value to read and returns
// its bit: members outside allowed or seen before fail, null members are
// skipped (a null leaves a field of a fresh message as it is). done
// reports the end of the message. The cursor starts after the opening
// brace.
func (s *scanner) value(allowed uint) (m uint, done, ok bool) {
	for {
		key, closed, ok := s.member()
		if !ok {
			return 0, false, false
		}
		if closed {
			return 0, true, s.end()
		}
		m = memberBit(key)
		if m&allowed == 0 || m&s.seen != 0 {
			return 0, false, false
		}
		s.seen |= m
		if !s.literal("null") {
			return m, false, true
		}
	}
}

//homeo:hotpath
func (s *scanner) txnRequest(req *TxnRequest, class string, args []int64, site *int) bool {
	if !s.open() {
		return false
	}
	for {
		m, done, ok := s.value(requestMembers)
		if done || !ok {
			return ok
		}
		switch m {
		case mClass:
			var name []byte
			if name, ok = s.plainString(); string(name) != class {
				class = string(name)
			}
			req.Class = class
		case mArgs:
			req.Args, ok = s.integers(args)
		case mSite:
			var v int64
			if v, ok = s.integer(); ok {
				if site == nil {
					site = new(int)
				}
				*site, req.Site = int(v), site
			}
		case mTimeout:
			req.TimeoutMS, ok = s.integer()
		}
		if !ok {
			return false
		}
	}
}

//homeo:hotpath
func (s *scanner) txnResult(res *TxnResult) bool {
	if !s.open() {
		return false
	}
	for {
		m, done, ok := s.value(resultMembers)
		if done || !ok {
			return ok
		}
		switch m {
		case mClass:
			var name []byte
			name, ok = s.plainString()
			res.Class = string(name)
		case mArgs:
			res.Args, ok = s.integers(nil)
		case mLog:
			res.Log, ok = s.integers(nil)
		case mSite:
			var v int64
			v, ok = s.integer()
			res.Site = int(v)
		case mCommitted:
			res.Committed, ok = s.boolean()
		case mSynced:
			res.Synced, ok = s.boolean()
		case mLatency:
			res.LatencyMS, ok = s.number()
		}
		if !ok {
			return false
		}
	}
}
