package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strconv"
)

// The codec of a registration. POST /v1/classes carries one ClassRequest
// up and one ClassInfo back for every class registered on its own, so
// these two messages go the way of the commit path's (txncodec.go): the
// Append functions emit exactly encoding/json's bytes — compact for the
// request, as json.Marshal writes it, and for the reply the two-space
// indent and final newline of the json.Encoder the server has always
// answered with — and the Parse functions scan the canonical shape
// directly: the known lower-case keys, each at most once, strings of
// printable ASCII with the escapes encoding/json writes for it, integers,
// a boolean, and the flat maps and string lists of the two messages. A
// batch, an SQL class with its rows, a key that is unknown, repeated or
// itself escaped, a string with any byte outside ASCII, a null inside a
// map, malformed JSON: every other body is handed to a json.Decoder, which
// is what both ends read these bodies with before, so what is accepted and
// rejected, and with which message, stays its decision.

// AppendClassRequest appends req as compact JSON, byte for byte what
// json.Marshal(req) returns.
func AppendClassRequest(dst []byte, req *ClassRequest) []byte {
	if req.SQL != "" || len(req.Rows) > 0 {
		// The relational half of the message is rare and nested. Marshalling
		// a ClassRequest cannot fail, and marshalling a copy keeps the
		// caller's from escaping to the heap on the calls that never get
		// here.
		v := *req
		b, _ := json.Marshal(&v)
		return append(dst, b...)
	}
	dst = append(dst, '{')
	n := len(dst)
	if req.Name != "" {
		dst = appendString(append(dst, `"name":`...), req.Name)
	}
	if req.L != "" {
		dst = appendString(append(appendComma(dst, n), `"l":`...), req.L)
	}
	var keyBuf [8]string
	if len(req.Bounds) > 0 {
		dst = append(appendComma(dst, n), `"bounds":{`...)
		for i, k := range sortedKeys(keyBuf[:0], req.Bounds) {
			if i > 0 {
				dst = append(dst, ',')
			}
			b := req.Bounds[k]
			dst = strconv.AppendInt(append(appendString(dst, k), ':', '['), b[0], 10)
			dst = append(strconv.AppendInt(append(dst, ','), b[1], 10), ']')
		}
		dst = append(dst, '}')
	}
	if len(req.Initial) > 0 {
		dst = append(appendComma(dst, n), `"initial":{`...)
		for i, k := range sortedKeys(keyBuf[:0], req.Initial) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(appendString(dst, k), ':'), req.Initial[k], 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// sortedKeys appends the keys of m to keys in the order encoding/json
// writes a map's members.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// AppendClassInfo appends info as the server writes it: what a
// json.Encoder with SetIndent("", "  ") encodes, final newline included.
func AppendClassInfo(dst []byte, info *ClassInfo) []byte {
	dst = appendString(append(dst, "{\n  \"name\": "...), info.Name)
	dst = appendStrings(dst, "params", info.Params)
	dst = appendStrings(dst, "objects", info.Objects)
	if info.Pinned {
		dst = append(dst, ",\n  \"pinned\": true"...)
	}
	if info.PinReason != "" {
		dst = appendString(append(dst, ",\n  \"pin_reason\": "...), info.PinReason)
	}
	dst = appendStrings(dst, "treaties", info.Treaties)
	return append(dst, "\n}\n"...)
}

// appendStrings appends a non-empty list of strings as an indented member
// that is not the object's first.
func appendStrings(dst []byte, key string, vs []string) []byte {
	if len(vs) == 0 {
		return dst
	}
	dst = append(append(append(dst, ",\n  \""...), key...), "\": ["...)
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, "\n    "...), v)
	}
	return append(dst, "\n  ]"...)
}

// ParseClassRequest decodes a POST /v1/classes body into env, with the
// result a json.Decoder gives on a zero envelope, an empty or all-blank
// body being the empty request. env is reset first, but the maps
// env.Bounds and env.Initial point to on entry are emptied and reused when
// the body has those members: a caller that pools them decodes a request
// with no allocation but its strings. A body with a batch member fills
// env.Batch.
func ParseClassRequest(data []byte, env *ClassEnvelope) error {
	bounds, initial := env.Bounds, env.Initial
	*env = ClassEnvelope{}
	s := scanner{data: data}
	if s.end() {
		return nil
	}
	if !s.classRequest(&env.ClassRequest, bounds, initial) {
		return decodeClassRequest(data, env)
	}
	return nil
}

// ParseClassInfo decodes the reply to a single registration into info,
// with the result a json.Decoder gives into a zero ClassInfo.
func ParseClassInfo(data []byte, info *ClassInfo) error {
	*info = ClassInfo{}
	s := scanner{data: data}
	if !s.classInfo(info) {
		return decodeClassInfo(data, info)
	}
	return nil
}

// The way out, for every body the scanner does not take: a json.Decoder on
// the whole body, as httpapi and client ran one on the connection, so that
// bytes after the first value are still not looked at. Decoding into a
// local and copying keeps the caller's value from escaping to the heap
// through encoding/json's interface parameter on the calls that never get
// here.

func decodeClassRequest(data []byte, env *ClassEnvelope) error {
	var v ClassEnvelope
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&v)
	if errors.Is(err, io.EOF) {
		err = nil // nothing but white space: the empty request
	}
	*env = v
	return err
}

func decodeClassInfo(data []byte, info *ClassInfo) error {
	var v ClassInfo
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&v)
	*info = v
	return err
}

// text reads a string of printable ASCII whose escapes, if any, are the
// two-character ones and \u00XX below 0x80: what encoding/json writes for
// an ASCII string, and nothing it would have to repair.
func (s *scanner) text() (string, bool) {
	if s.i >= len(s.data) || s.data[s.i] != '"' {
		return "", false
	}
	start := s.i + 1
	for j := start; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			s.i = j + 1
			return string(s.data[start:j]), true
		case c == '\\':
			return s.escapedText(start, j)
		case c < 0x20 || c >= 0x80:
			return "", false
		}
	}
	return "", false
}

// escapedText finishes text for a string that starts at start and has its
// first escape at esc.
func (s *scanner) escapedText(start, esc int) (string, bool) {
	var buf [512]byte
	out := append(buf[:0], s.data[start:esc]...)
	for j := esc; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			s.i = j + 1
			return string(out), true
		case c < 0x20 || c >= 0x80:
			return "", false
		case c != '\\':
			out = append(out, c)
			continue
		}
		if j++; j >= len(s.data) {
			return "", false
		}
		switch c := s.data[j]; c {
		case '"', '\\', '/':
			out = append(out, c)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if j+4 >= len(s.data) || s.data[j+1] != '0' || s.data[j+2] != '0' {
				return "", false
			}
			hi, lo := unhex(s.data[j+3]), unhex(s.data[j+4])
			if hi > 7 || lo > 15 {
				return "", false
			}
			out = append(out, hi<<4|lo)
			j += 4
		default:
			return "", false
		}
	}
	return "", false
}

// unhex is the value of a hexadecimal digit, 0xff for any other byte.
func unhex(c byte) byte {
	switch {
	case c-'0' <= 9:
		return c - '0'
	case (c|0x20)-'a' <= 5:
		return (c | 0x20) - 'a' + 10
	}
	return 0xff
}

// texts reads an array of strings. The array is sized once, by reading it
// twice: past its strings, then into them.
func (s *scanner) texts() ([]string, bool) {
	if s.i >= len(s.data) || s.data[s.i] != '[' {
		return nil, false
	}
	s.i++
	if s.skipBlank() == ']' {
		s.i++
		return []string{}, true
	}
	first, n := s.i, 0
	for {
		s.skipBlank()
		if !s.skipText() {
			return nil, false
		}
		n++
		if c := s.skipBlank(); c == ']' {
			break
		} else if c != ',' {
			return nil, false
		}
		s.i++
	}
	out := make([]string, n)
	s.i = first
	for k := range out {
		s.skipBlank()
		v, ok := s.text()
		if !ok {
			return nil, false
		}
		out[k] = v
		s.skipBlank()
		s.i++ // the comma or bracket seen the first time
	}
	return out, true
}

// skipText moves past a string text would read.
func (s *scanner) skipText() bool {
	if s.i >= len(s.data) || s.data[s.i] != '"' {
		return false
	}
	for j := s.i + 1; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			s.i = j + 1
			return true
		case c == '\\':
			j++ // text checks the escape when the array is read again
		case c < 0x20 || c >= 0x80:
			return false
		}
	}
	return false
}

// entries walks the members of a map: each is called for every key, with
// the cursor on the value, and reads it. Keys are plain strings; a map
// that repeats one is left to encoding/json.
func (s *scanner) entries(each func(key []byte) bool) bool {
	if s.i >= len(s.data) || s.data[s.i] != '{' {
		return false
	}
	s.i++
	if s.skipBlank() == '}' {
		s.i++
		return true
	}
	for {
		key, ok := s.plainString()
		if !ok || s.skipBlank() != ':' {
			return false
		}
		s.i++
		s.skipBlank()
		if !each(key) {
			return false
		}
		switch s.skipBlank() {
		case ',':
			s.i++
			s.skipBlank()
		case '}':
			s.i++
			return true
		default:
			return false
		}
	}
}

func (s *scanner) classRequest(req *ClassRequest, bounds map[string][2]int64, initial map[string]int64) bool {
	if !s.open() {
		return false
	}
	for {
		m, done, ok := s.value(classRequestMembers)
		if done || !ok {
			return ok
		}
		switch m {
		case mName:
			req.Name, ok = s.text()
		case mL:
			req.L, ok = s.text()
		case mBounds:
			if bounds == nil {
				bounds = make(map[string][2]int64)
			}
			clear(bounds)
			req.Bounds = bounds
			ok = s.entries(func(key []byte) bool {
				var b [2]int64
				var ok bool
				if s.i >= len(s.data) || s.data[s.i] != '[' {
					return false
				}
				s.i++
				s.skipBlank()
				if b[0], ok = s.integer(); !ok || s.skipBlank() != ',' {
					return false
				}
				s.i++
				s.skipBlank()
				if b[1], ok = s.integer(); !ok || s.skipBlank() != ']' {
					return false
				}
				s.i++
				if _, dup := bounds[string(key)]; dup {
					return false
				}
				bounds[string(key)] = b
				return true
			})
		case mInitial:
			if initial == nil {
				initial = make(map[string]int64)
			}
			clear(initial)
			req.Initial = initial
			ok = s.entries(func(key []byte) bool {
				v, ok := s.integer()
				if _, dup := initial[string(key)]; dup || !ok {
					return false
				}
				initial[string(key)] = v
				return true
			})
		}
		if !ok {
			return false
		}
	}
}

func (s *scanner) classInfo(info *ClassInfo) bool {
	if !s.open() {
		return false
	}
	for {
		m, done, ok := s.value(classInfoMembers)
		if done || !ok {
			return ok
		}
		switch m {
		case mName:
			info.Name, ok = s.text()
		case mParams:
			info.Params, ok = s.texts()
		case mObjects:
			info.Objects, ok = s.texts()
		case mPinned:
			info.Pinned, ok = s.boolean()
		case mPinReason:
			info.PinReason, ok = s.text()
		case mTreaties:
			info.Treaties, ok = s.texts()
		}
		if !ok {
			return false
		}
	}
}
