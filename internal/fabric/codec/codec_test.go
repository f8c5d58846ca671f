package codec_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/homeo/wire"
	"repro/internal/fabric/codec"
)

// samples is one representative value per negotiation and recovery
// message kind, with the awkward corners included: nil and non-nil
// optional winner, empty and multi-entry maps, negative values, every
// constraint op. (BenchmarkPeerCodec measures exactly this set.)
func samples() []any {
	return []any{
		&wire.PeerCollect{From: 1, Round: 7, Clock: 99, Units: []int{0, 2}, Objs: []string{"stock(0)", "stock(1)"}},
		&wire.PeerState{Clock: 100, Values: map[string]int64{"stock(0)": 5, "delta:1:stock(0)": -2}},
		&wire.PeerInstallState{From: 0, Round: 8, Clock: 101, Objs: []string{"a"},
			Folded: map[string]int64{"a": 42},
			Winner: &wire.PeerWinner{Class: "Order", Args: []int64{1, -2}, Site: 1, Units: []int{0}, Log: []int64{3}}},
		&wire.PeerInstallState{From: 2, Round: 9, Clock: 50},
		&wire.PeerInstallTreaties{From: 0, Round: 8, Clock: 102, Site: 1, Units: []wire.PeerUnitTreaty{{
			Unit: 0, Version: 3, Constraints: []wire.PeerConstraint{
				{Coeffs: map[string]int64{"stock(0)": 1}, Const: -10, Op: "<="},
				{Coeffs: map[string]int64{"x": 2, "y": -1}, Const: 0, Op: "<"},
				{Const: 5, Op: "=="},
			}}}},
		&wire.PeerAbort{From: 1, Round: 7, Clock: 103},
		&wire.PeerAck{Clock: 104},
		&wire.PeerRejoin{Site: 2, Clock: 105, Units: []wire.PeerUnitVersion{{Unit: 0, Version: 1}, {Unit: 1, Version: 2}}},
		&wire.PeerRejoinReply{Clock: 106, Units: []wire.PeerRejoinUnit{
			{Unit: 0, Version: 4, Force: true, Base: map[string]int64{"a": 1}},
			{Unit: 1, Version: 5},
		}},
	}
}

// allSamples adds the membership kinds, so every kind of the protocol has
// at least one sample.
func allSamples() []any {
	return append(samples(),
		&wire.PeerJoin{Site: 3, Round: 2, Clock: 107, Addr: "http://10.0.0.4:8080", Phase: 1},
		&wire.PeerJoinReply{Clock: 108, Epoch: 4, Units: []wire.PeerJoinUnit{
			{Unit: 0, Version: 6, Base: map[string]int64{"a": 1, "b": -1}},
			{Unit: 1, Version: 7},
		}},
		&wire.PeerDrain{Site: 1, Clock: 109},
		&wire.PeerDrainReply{Clock: 110, Epoch: 5},
	)
}

var update = flag.Bool("update", false, "rewrite the golden-bytes fixture from the current encoder")

// TestGoldenBytes pins the byte layout of every peer message kind to a
// checked-in fixture named after the format version: a sample must
// encode to exactly the fixture's bytes and the fixture must decode to
// the sample. Nothing sniffs or converts encodings, so this is the
// compatibility guarantee — a layout change fails here until Version is
// bumped and a fixture for the new version is written (-update).
func TestGoldenBytes(t *testing.T) {
	path := fmt.Sprintf("testdata/peer_v%d.golden", codec.Version)
	msgs := allSamples()
	if *update {
		var out strings.Builder
		for _, m := range msgs {
			enc, err := codec.AppendMessage(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%T %s\n", m, hex.EncodeToString(enc))
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no fixture for format version %d: %v", codec.Version, err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(msgs) {
		t.Fatalf("%s holds %d messages, the sample set %d", path, len(lines), len(msgs))
	}
	kinds := map[byte]bool{}
	for i, m := range msgs {
		name, hexBytes, _ := strings.Cut(lines[i], " ")
		want, err := hex.DecodeString(hexBytes)
		if err != nil || name != fmt.Sprintf("%T", m) {
			t.Fatalf("%s line %d: %q (%v), want a %T", path, i+1, lines[i], err, m)
		}
		got, err := codec.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T encodes to\n  %x\nfixture\n  %x", m, got, want)
		}
		out := fresh(m)
		if err := codec.DecodeMessage(want, out); err != nil {
			t.Errorf("%T: fixture does not decode: %v", m, err)
		} else if !reflect.DeepEqual(m, out) {
			t.Errorf("%T: fixture decodes to %+v, want %+v", m, out, m)
		}
		kinds[want[2]] = true
	}
	for k := codec.KindCollect; k <= codec.KindDrainReply; k++ {
		if !kinds[k] {
			t.Errorf("no golden sample of message kind %d", k)
		}
	}
}

// fresh returns a zero value of m's concrete type, as a pointer.
func fresh(m any) any {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface()
}

func TestMessageRoundTrip(t *testing.T) {
	for _, m := range allSamples() {
		enc, err := codec.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		out := fresh(m)
		if err := codec.DecodeMessage(enc, out); err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, out) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", m, out, m)
		}
	}
}

// TestEncodingDeterministic: the same value always encodes to the same
// bytes (maps are key-sorted), which the golden fixtures and the WAL's
// CRC framing rely on.
func TestEncodingDeterministic(t *testing.T) {
	for _, m := range allSamples() {
		a, _ := codec.AppendMessage(nil, m)
		for i := 0; i < 8; i++ {
			b, _ := codec.AppendMessage(nil, m)
			if !bytes.Equal(a, b) {
				t.Fatalf("%T: encoding differs across runs", m)
			}
		}
	}
}

// TestDecodeWrongKind: a body posted to the wrong endpoint (kind/type
// mismatch) fails loudly instead of misparsing.
func TestDecodeWrongKind(t *testing.T) {
	enc, _ := codec.AppendMessage(nil, &wire.PeerCollect{From: 1})
	var st wire.PeerState
	if err := codec.DecodeMessage(enc, &st); err == nil {
		t.Fatal("collect body decoded as PeerState without error")
	}
}

// TestDecodeRetiredKinds: kind bytes 13 and 14 belonged to a message pair
// this format version no longer carries. Their bodies, as the fixture held
// them while it did, are refused whatever they are decoded as, naming the
// kind no decoder knows.
func TestDecodeRetiredKinds(t *testing.T) {
	for _, retired := range []string{
		"b5020d000ade01040201016101016154",
		"b5020ee0010a",
	} {
		body, err := hex.DecodeString(retired)
		if err != nil {
			t.Fatal(err)
		}
		if body[2] <= codec.KindDrainReply {
			t.Fatalf("kind byte %d is in use", body[2])
		}
		for _, m := range allSamples() {
			err := codec.DecodeMessage(body, fresh(m))
			if err == nil {
				t.Fatalf("retired kind %d decoded as %T", body[2], m)
			}
			if want := fmt.Sprintf("message kind %d", body[2]); !strings.Contains(err.Error(), want) {
				t.Errorf("retired kind %d as %T: error %q does not mention %q", body[2], m, err, want)
			}
		}
	}
}

// TestDecodeRefusesOtherEncodings: a payload that does not open with the
// codec magic, or carries another format version, is refused with an
// error naming what was found and what this build reads.
func TestDecodeRefusesOtherEncodings(t *testing.T) {
	enc, _ := codec.AppendMessage(nil, &wire.PeerCollect{From: 1})
	otherVersion := append([]byte(nil), enc...)
	otherVersion[1] = codec.Version - 1
	for _, tc := range []struct {
		name     string
		payload  []byte
		mentions []string
	}{
		{"JSON body", []byte(`{"from":1}`), []string{"0x7b", "0xb5", "version 2"}},
		{"previous version", otherVersion, []string{"format version 1", "only version 2"}},
	} {
		var c wire.PeerCollect
		err := codec.DecodeMessage(tc.payload, &c)
		if err == nil {
			t.Fatalf("%s decoded", tc.name)
		}
		for _, want := range tc.mentions {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}

// TestDecodeCorruption is the codec's analogue of the WAL torn-tail
// corpus: every truncation of a valid message must fail cleanly, and
// every single-byte flip must decode without panicking or huge
// allocations (a flipped count must not become an allocation request).
func TestDecodeCorruption(t *testing.T) {
	for _, m := range allSamples() {
		enc, err := codec.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(enc); i++ {
			if err := codec.DecodeMessage(enc[:i], fresh(m)); err == nil {
				t.Errorf("%T: truncation to %d/%d bytes decoded cleanly", m, i, len(enc))
			}
		}
		for i := 0; i < len(enc); i++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 0xFF
			// Must not panic; an error or a different value are both fine,
			// except in the header, where every byte is checked.
			if err := codec.DecodeMessage(mut, fresh(m)); i < 3 && err == nil {
				t.Errorf("%T: flipped header byte %d decoded cleanly", m, i)
			}
		}
	}
}

// TestRawConstraintsWalksWhatConstraintsReads: over a sample list, every
// truncation of it and every single-byte flip, RawConstraints accepts
// exactly what Constraints accepts, consumes exactly the same bytes, and
// returns them — a sub-slice of the input that decodes to the same list.
func TestRawConstraintsWalksWhatConstraintsReads(t *testing.T) {
	list, err := codec.AppendConstraints(nil, []wire.PeerConstraint{
		{Coeffs: map[string]int64{"stock(0)": 1, "stock(0)@d1": 1}, Const: -10, Op: "<="},
		{Const: 5, Op: "=="},
		{Coeffs: map[string]int64{"x": 2, "y": -1, "z": 300}, Const: 0, Op: "<"},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, in []byte) {
		full, raw := codec.NewReader(in), codec.MakeReader(in)
		want := full.Constraints()
		got := raw.RawConstraints()
		if (full.Err() == nil) != (raw.Err() == nil) {
			t.Fatalf("%s: Constraints says %v, RawConstraints %v", what, full.Err(), raw.Err())
		}
		if full.Err() != nil {
			if got != nil {
				t.Fatalf("%s: RawConstraints returned %d bytes of a list it refused", what, len(got))
			}
			return
		}
		if full.Len() != raw.Len() || len(got) != len(in)-raw.Len() {
			t.Fatalf("%s: Constraints left %d bytes, RawConstraints %d and returned %d of %d",
				what, full.Len(), raw.Len(), len(got), len(in))
		}
		if len(got) > 0 && (&got[0] != &in[0] || cap(got) != len(got)) {
			t.Fatalf("%s: the raw list is not a capacity-clipped sub-slice of the input", what)
		}
		again := codec.NewReader(got)
		if cs := again.Constraints(); again.Close() != nil || !reflect.DeepEqual(cs, want) {
			t.Fatalf("%s: the raw list decodes to %+v (%v), want %+v", what, cs, again.Close(), want)
		}
	}
	check("whole", append(list, 0xAA, 0xBB)) // trailing bytes are the next field's
	for i := 0; i < len(list); i++ {
		check(fmt.Sprintf("truncated to %d", i), list[:i])
		mut := append([]byte(nil), list...)
		mut[i] ^= 0xFF
		check(fmt.Sprintf("byte %d flipped", i), mut)
	}
}

// TestBorrowingReads: Bytes and the Into readers return the input's own
// bytes, capacity-clipped, append after what the destination holds, and
// keep its array when it is large enough.
func TestBorrowingReads(t *testing.T) {
	var in []byte
	in = codec.AppendString(in, "Order")
	in = codec.AppendInt64s(in, []int64{7, -3})
	in = codec.AppendInts(in, []int{2})
	in = codec.AppendStringMap(in, map[string]int64{"b": 2, "a": 1})
	in = codec.AppendStrings(in, []string{"x", ""})
	r := codec.MakeReader(in)
	name := r.Bytes()
	if string(name) != "Order" || &name[0] != &in[1] || cap(name) != len(name) {
		t.Errorf("Bytes = %q, cap %d: want the input's own 5 bytes, clipped", name, cap(name))
	}
	scratch := make([]int64, 1, 8)
	scratch[0] = 99
	i64s := r.Int64sInto(scratch)
	if !reflect.DeepEqual(i64s, []int64{99, 7, -3}) || &i64s[0] != &scratch[0] {
		t.Errorf("Int64sInto = %v, want it appended in the destination's array", i64s)
	}
	if ints := r.IntsInto(nil); !reflect.DeepEqual(ints, []int{2}) {
		t.Errorf("IntsInto = %v", ints)
	}
	pairs := r.PairsInto(nil)
	if len(pairs) != 2 || string(pairs[0].Name) != "a" || pairs[0].Val != 1 || string(pairs[1].Name) != "b" || pairs[1].Val != 2 {
		t.Errorf("PairsInto = %v, want a=1 b=2 in encoded (sorted) order", pairs)
	}
	list := r.BytesListInto(nil)
	if len(list) != 2 || string(list[0]) != "x" || len(list[1]) != 0 {
		t.Errorf("BytesListInto = %q", list)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	short := codec.MakeReader(in[:3])
	if b := short.Bytes(); b != nil || short.Err() == nil {
		t.Errorf("Bytes over a truncated string = %q, %v", b, short.Err())
	}
}

// FuzzDecodeMessage drives arbitrary bytes through every decoder. The
// properties: no panic, and anything that decodes cleanly re-encodes to
// a message that decodes back to the same value (the codec is closed
// under its own round trip even for non-canonical varint input).
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range allSamples() {
		enc, _ := codec.AppendMessage(nil, m)
		f.Add(enc)
	}
	// One decoder and one value per kind for the whole run, as a transport
	// holds them: each input is decoded over whatever the inputs before it
	// left there, names table included.
	var reused codec.Decoder
	dirty := make([]any, len(allSamples()))
	for i, m := range allSamples() {
		enc, _ := codec.AppendMessage(nil, m)
		dirty[i] = fresh(m)
		if err := reused.Decode(enc, dirty[i]); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, m := range allSamples() {
			v := fresh(m)
			err := codec.DecodeMessage(data, v)
			// Differential: decoding into a dirty reused value gives what
			// decoding into a fresh one gives, or fails as it fails.
			derr := reused.Decode(data, dirty[i])
			if (err == nil) != (derr == nil) || err != nil && err.Error() != derr.Error() {
				t.Fatalf("%T: fresh decode: %v; reused decode: %v", v, err, derr)
			}
			if err != nil {
				continue
			}
			enc, err := codec.AppendMessage(nil, v)
			if err != nil {
				t.Fatalf("%T: decoded value does not re-encode: %v", v, err)
			}
			// Every field is encoded, so equal encodings are equal messages
			// (a reused value holds an emptied map where a fresh one holds
			// none, which is no difference to any reader).
			if denc, err := codec.AppendMessage(nil, dirty[i]); err != nil || !bytes.Equal(denc, enc) {
				t.Fatalf("%T: decoded into a reused value\n  %+v (%v)\ninto a fresh one\n  %+v", v, dirty[i], err, v)
			}
			again := fresh(m)
			if err := codec.DecodeMessage(enc, again); err != nil {
				t.Fatalf("%T: re-encoded value does not decode: %v", v, err)
			}
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("%T: re-encode round trip mismatch:\n got %+v\nwant %+v", v, again, v)
			}
		}
	})
}

// BenchmarkPeerCodec measures one encode+decode of each negotiation
// message into a reused buffer — the transport's per-body codec cost.
func BenchmarkPeerCodec(b *testing.B) {
	msgs := samples()
	outs := make([]any, len(msgs))
	for i, m := range msgs {
		outs[i] = fresh(m)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := msgs[i%len(msgs)]
		var err error
		buf, err = codec.AppendMessage(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		if err := codec.DecodeMessage(buf, outs[i%len(msgs)]); err != nil {
			b.Fatal(err)
		}
	}
}
