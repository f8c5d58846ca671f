// Package codec is the length-prefixed binary encoding of the
// site-fabric peer protocol (/v1/peer/* request and reply bodies) and of
// the write-ahead log's record payloads: the one machine encoding of
// both.
//
// Every encoded value starts with a three-byte header — magic, format
// version, message kind — followed by the kind's fields in a fixed
// order. Integers are varints (zigzag for signed), strings and byte
// blobs are length-prefixed, and maps are written as sorted key/value
// runs so encoding is deterministic: the same value always produces the
// same bytes, which the WAL's CRC framing and the golden tests rely on.
//
// A cluster runs one build and a log is read by the build that wrote it:
// Reader.Header refuses any other magic or version, naming what it found
// and what it reads, and a layout change bumps Version (the golden-bytes
// tests fail until it does). There is no second encoding to fall back to.
package codec

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
)

const (
	// Magic is the first byte of every binary-encoded value.
	Magic = 0xB5
	// Version is the encoding format version; it changes whenever the
	// layout of any peer message or WAL record does.
	Version = 2
	// ContentType is the content type of every /v1/peer/* request and
	// reply body.
	ContentType = "application/x-homeo-peer"
)

// AppendHeader appends the three-byte header for a message kind.
func AppendHeader(dst []byte, kind byte) []byte {
	return append(dst, Magic, Version, kind)
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends a zigzag-encoded signed varint.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendInt appends a signed int as a varint.
func AppendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// AppendBool appends a bool as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendInt64s appends a count-prefixed slice of signed varints.
func AppendInt64s(dst []byte, vs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// AppendInts appends a count-prefixed slice of signed varints.
func AppendInts(dst []byte, vs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// AppendStrings appends a count-prefixed slice of strings.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// keyScratch pools the sorted-key scratch AppendStringMap uses, so the
// encode path does not allocate a fresh slice per map.
var keyScratch = sync.Pool{New: func() any { s := make([]string, 0, 64); return &s }}

// AppendStringMap appends a map[string]int64 as a count prefix followed
// by key-sorted (string, varint) pairs. The sort makes the encoding
// deterministic.
//
//homeo:hotpath
func AppendStringMap(dst []byte, m map[string]int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	if len(m) == 0 {
		return dst
	}
	kp := keyScratch.Get().(*[]string)
	keys := (*kp)[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = AppendString(dst, k)
		dst = binary.AppendVarint(dst, m[k])
	}
	*kp = keys
	keyScratch.Put(kp)
	return dst
}

// Reader decodes codec-encoded bytes. Methods are sticky on error: the
// first malformed field poisons the reader and every later read returns
// a zero value, so call sites can decode a whole message and check Err
// once at the end.
//
// Bytes, BytesListInto, PairsInto and RawConstraints return sub-slices
// of the input instead of copies: what they return is valid only as long
// as the input is, and a caller that keeps any of it past that copies it
// out.
type Reader struct {
	b   []byte
	off int
	err error
	// names, when set, is where String looks a name up before it makes a
	// new string of it (see Decoder).
	names map[string]string
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// MakeReader returns a reader over b by value, for a decoder that reads
// record after record and wants no heap reader for each.
func MakeReader(b []byte) Reader { return Reader{b: b} }

// MakeNamedReader is MakeReader for a caller that keeps a name table:
// String looks each name up in names before it makes a string of it, and
// adds the ones it makes, so a name seen before is the string made then.
func MakeNamedReader(b []byte, names map[string]string) Reader {
	return Reader{b: b, names: names}
}

// Pair is one entry of a map encoded by AppendStringMap, as PairsInto
// reads it: the name is a sub-slice of the reader's input.
type Pair struct {
	Name []byte
	Val  int64
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: "+format, args...)
	}
}

// Header consumes the three-byte header and returns the message kind. A
// first byte other than Magic or a version other than Version is an
// error: nothing else is read by this build.
func (r *Reader) Header() byte {
	if r.err != nil {
		return 0
	}
	if r.Len() < 3 {
		r.fail("short header (%d bytes)", r.Len())
		return 0
	}
	if r.b[r.off] != Magic || r.b[r.off+1] != Version {
		r.failHeader(r.b[r.off], r.b[r.off+1])
		return 0
	}
	kind := r.b[r.off+2]
	r.off += 3
	return kind
}

// failHeader words the refusal of a foreign header, out of line so that
// Header, which every decode runs, stays small.
func (r *Reader) failHeader(magic, version byte) {
	if magic != Magic {
		r.fail("first byte %#02x is not the codec magic %#02x (format version %d is the only encoding read)",
			magic, Magic, Version)
		return
	}
	r.fail("format version %d, this build reads only version %d", version, Version)
}

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Len() < 1 {
		r.fail("unexpected end of input")
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

// Bool consumes one byte as a bool.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint consumes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint consumes a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int consumes a signed varint as an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Count consumes a collection count and bounds it by the remaining
// input (every element takes at least one byte), so corrupt lengths
// cannot drive huge allocations.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()) {
		r.fail("count %d exceeds %d remaining bytes", n, r.Len())
		return 0
	}
	return int(n)
}

// Bytes consumes a length-prefixed string or blob and returns it as a
// sub-slice of the input, capacity-clipped so an append cannot write
// into what follows it.
//
//homeo:hotpath
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.fail("string length %d exceeds %d remaining bytes", n, r.Len())
		return nil
	}
	end := r.off + int(n)
	b := r.b[r.off:end:end]
	r.off = end
	return b
}

// String consumes a length-prefixed string.
//
//homeo:hotpath
func (r *Reader) String() string {
	b := r.Bytes()
	if r.names == nil {
		return string(b)
	}
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	r.names[s] = s
	return s
}

// maxNames bounds a Decoder's name table: a table that has filled up
// starts over before the next message, so it follows a working set that
// moves. A table of MakeNamedReader's is its caller's to bound.
const maxNames = 4096

// The list readers below append to a slice the caller supplies (cut to
// length zero, it is scratch the next record reuses) and return it; on a
// malformed list what they return is meaningless and Err says so.

// Int64sInto consumes a count-prefixed slice of signed varints onto dst.
//
//homeo:hotpath
func (r *Reader) Int64sInto(dst []int64) []int64 {
	n := r.Count()
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Varint())
	}
	return dst
}

// IntsInto consumes a count-prefixed slice of signed varints onto dst,
// as ints.
//
//homeo:hotpath
func (r *Reader) IntsInto(dst []int) []int {
	n := r.Count()
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, int(r.Varint()))
	}
	return dst
}

// BytesListInto consumes a count-prefixed slice of strings onto dst,
// each a sub-slice of the input.
//
//homeo:hotpath
func (r *Reader) BytesListInto(dst [][]byte) [][]byte {
	n := r.Count()
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Bytes())
	}
	return dst
}

// StringsInto consumes a count-prefixed slice of strings onto dst.
//
//homeo:hotpath
func (r *Reader) StringsInto(dst []string) []string {
	n := r.Count()
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.String())
	}
	return dst
}

// PairsInto consumes a map encoded by AppendStringMap onto dst, entry
// by entry in encoded order (sorted by name, when AppendStringMap wrote
// it), each name a sub-slice of the input.
//
//homeo:hotpath
func (r *Reader) PairsInto(dst []Pair) []Pair {
	n := r.Count()
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, Pair{Name: r.Bytes(), Val: r.Varint()})
	}
	return dst
}

// StringMapInto consumes a map encoded by AppendStringMap into m, emptied
// first, and returns it: a map of its own when m is nil and there is
// anything to hold. On a malformed map what it returns is meaningless and
// Err says so.
//
//homeo:hotpath
func (r *Reader) StringMapInto(m map[string]int64) map[string]int64 {
	clear(m)
	n := r.Count()
	if m == nil && n > 0 {
		m = make(map[string]int64, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		k := r.String()
		v := r.Varint()
		if r.err == nil {
			m[k] = v
		}
	}
	return m
}

// skipStringMap walks a map encoded by AppendStringMap and builds nothing
// (see RawConstraints).
//
//homeo:hotpath
func (r *Reader) skipStringMap() {
	n := r.Count()
	for i := 0; i < n && r.err == nil; i++ {
		r.Bytes()
		r.Varint()
	}
}

// resized returns s with length n, keeping the elements it has (a decoder
// fills them in place, reusing what they hold) and adding zero ones as
// needed; nil stays nil at length zero.
func resized[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// orNil is the own-slice form's result: the decoded list, nil when it is
// empty or the reader has failed.
func orNil[T any](r *Reader, vs []T) []T {
	if r.err != nil || len(vs) == 0 {
		return nil
	}
	return vs
}

// Close checks that the input was consumed exactly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Len() != 0 {
		return fmt.Errorf("codec: %d trailing bytes", r.Len())
	}
	return nil
}
