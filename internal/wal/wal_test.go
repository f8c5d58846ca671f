package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/homeo/wire"
	"repro/internal/fabric/codec"
)

func openT(t *testing.T, path string) (*Log, []Record) {
	t.Helper()
	l, data, err := Open(path, Options{GroupWindow: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, records(t, data)
}

// records collects what Walk visits of p.
func records(t *testing.T, p Prefix) []Record {
	t.Helper()
	var recs []Record
	n, err := p.Walk(func(i int, r Record) error {
		if i != len(recs) {
			t.Fatalf("Walk handed record %d as %d", len(recs), i)
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil || n != len(recs) {
		t.Fatalf("Walk = (%d, %v) after visiting %d", n, err, len(recs))
	}
	return recs
}

// TestRoundTrip appends typed records through a close/reopen cycle and
// checks they replay intact.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.wal")
	l, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	samples := sampleRecords()
	commit, install, tr := samples[0].(CommitRecord), samples[1].(InstallRecord), samples[2].(TreatyRecord)
	if err := l.AppendCommit(commit); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInstall(install); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTreaty(tr); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, path)
	defer l2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	gotC, err := recs[0].Commit()
	if err != nil {
		t.Fatal(err)
	}
	if gotC.Class != "Withdraw" || gotC.Clock != 9 || gotC.Round == nil || *gotC.Round != (RoundID{Site: 1, Seq: 4}) ||
		gotC.Writes["d0_y"] != 12 {
		t.Errorf("commit round-trip = %+v", gotC)
	}
	gotI, err := recs[1].Install()
	if err != nil {
		t.Fatal(err)
	}
	if gotI.Round != (RoundID{Site: 2, Seq: 1}) || gotI.Base["x"] != 100 || gotI.Drift["d1_x"] != 5 || gotI.Sites != 3 {
		t.Errorf("install round-trip = %+v", gotI)
	}
	gotT, err := recs[2].Treaty()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotT, tr) {
		t.Errorf("treaty round-trip = %+v, want %+v", gotT, tr)
	}
	// Kind mismatch surfaces as an error, not a zero-valued decode.
	if _, err := recs[0].Install(); err == nil {
		t.Error("decoding a commit as an install succeeded")
	}
}

// sampleRecords is one record of every kind, in kind order.
func sampleRecords() []any {
	return []any{
		CommitRecord{Class: "Withdraw", Args: []int64{7, -3}, Site: 1, Units: []int{0, 2},
			Log: []int64{42}, Clock: 9, Round: &RoundID{Site: 1, Seq: 4},
			Writes: map[string]int64{"d0_x": -3, "d0_y": 12}},
		InstallRecord{Round: RoundID{Site: 2, Seq: 1}, Clock: 11, Sites: 3,
			Objs: []string{"x"}, Base: map[string]int64{"x": 100}, Drift: map[string]int64{"d1_x": 5}},
		TreatyRecord{Unit: 3, Site: 1, Version: 2, Clock: 12, Round: &RoundID{Site: 0, Seq: 7},
			Constraints: []wire.PeerConstraint{
				{Coeffs: map[string]int64{"x": 1, "d1_x": 1}, Const: -20, Op: "<="},
				{Const: -1, Op: "<"},
				{Coeffs: map[string]int64{"y": -2}, Const: 4, Op: "=="},
			}},
		MembershipRecord{Epoch: 3, Width: 4, Status: []int{0, 1, 0, 0},
			Addrs: []string{"http://a:1", "", "http://c:3", "http://d:4"}, Clock: 13},
	}
}

// encodeRecord returns the kind and payload AppendX would frame for rec.
func encodeRecord(t testing.TB, rec any) (Kind, []byte) {
	t.Helper()
	switch c := rec.(type) {
	case CommitRecord:
		return KindCommit, appendCommitPayload(nil, &c)
	case InstallRecord:
		return KindInstall, appendInstallPayload(nil, &c)
	case TreatyRecord:
		b, err := appendTreatyPayload(nil, &c)
		if err != nil {
			t.Fatal(err)
		}
		return KindTreaty, b
	case MembershipRecord:
		return KindMembership, appendMembershipPayload(nil, &c)
	}
	t.Fatalf("no encoder for %T", rec)
	return 0, nil
}

var update = flag.Bool("update", false, "rewrite the golden-bytes fixture from the current encoder")

// TestGoldenBytes pins the payload layout of every record kind to a
// checked-in fixture named after the format version, the way the codec's
// test of the same name pins the peer messages: a log is only ever read
// by the format version that wrote it, so a layout change must fail here
// until codec.Version is bumped and a new fixture written (-update).
func TestGoldenBytes(t *testing.T) {
	path := fmt.Sprintf("testdata/wal_v%d.golden", codec.Version)
	recs := sampleRecords()
	if *update {
		var out strings.Builder
		for _, rec := range recs {
			kind, payload := encodeRecord(t, rec)
			fmt.Fprintf(&out, "%v %s\n", kind, hex.EncodeToString(payload))
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
	if len(lines) != len(recs) {
		t.Fatalf("%s holds %d records, the sample set %d", path, len(lines), len(recs))
	}
	for i, rec := range recs {
		kind, got := encodeRecord(t, rec)
		name, hexBytes, _ := strings.Cut(lines[i], " ")
		want, err := hex.DecodeString(hexBytes)
		if err != nil || name != kind.String() {
			t.Fatalf("%s line %d: %q (%v), want a %v record", path, i+1, lines[i], err, kind)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v encodes to\n  %x\nfixture\n  %x", kind, got, want)
		}
		dec, err := Record{Kind: kind, Payload: want}.Decode()
		if err != nil {
			t.Errorf("%v: fixture does not decode: %v", kind, err)
		} else if !reflect.DeepEqual(dec, rec) {
			t.Errorf("%v: fixture decodes to %+v, want %+v", kind, dec, rec)
		}
		if dec, err := new(views).decode(Record{Kind: kind, Payload: want}); err != nil {
			t.Errorf("%v: fixture does not decode in place: %v", kind, err)
		} else if !reflect.DeepEqual(dec, rec) {
			t.Errorf("%v: fixture decodes in place to %+v, want %+v", kind, dec, rec)
		}
	}
}

// TestFrameTagMustMatchPayload: a frame tagged as one kind whose payload
// header names another is corrupt even with a correct CRC, and must not
// be decoded as the tagged kind.
func TestFrameTagMustMatchPayload(t *testing.T) {
	_, install := encodeRecord(t, sampleRecords()[1])
	recs, valid := Scan(appendFrame(nil, KindCommit, install))
	if len(recs) != 1 || valid == 0 {
		t.Fatalf("the spliced frame did not scan (CRC is correct): %d records", len(recs))
	}
	_, err := recs[0].Commit()
	if err == nil {
		t.Fatal("an install payload under a commit tag decoded as a commit")
	}
	for _, want := range []string{"commit", "install"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the %s kind", err, want)
		}
	}
	if _, err := recs[0].Decode(); err == nil {
		t.Error("Decode accepted the spliced frame")
	}
}

// TestTornTail builds a valid log and then corrupts its tail every way a
// crash can: truncation mid-frame, a flipped payload byte, a flipped
// length, appended garbage. Replay must stop cleanly at the last valid
// record, and Open must repair the file so subsequent appends extend the
// valid prefix.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.wal")
	l, _ := openT(t, base)
	for i := 0; i < 5; i++ {
		if err := l.AppendCommit(CommitRecord{Class: "C", Clock: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := Scan(data)
	if len(recs) != 5 || valid != len(data) {
		t.Fatalf("clean scan: %d records, %d/%d bytes", len(recs), valid, len(data))
	}
	// Frame boundaries, for surgical corruption: bounds[i] is the byte
	// offset just past record i's frame.
	var bounds []int
	off := 0
	for off < len(data) {
		length := int(binary.BigEndian.Uint32(data[off:]))
		off += headerSize + length
		bounds = append(bounds, off)
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    int // records surviving replay
	}{
		{"TruncateMidPayload", func(b []byte) []byte { return b[:bounds[3]+headerSize+2] }, 4},
		{"TruncateMidHeader", func(b []byte) []byte { return b[:bounds[2]+3] }, 3},
		{"FlipPayloadByte", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[bounds[1]+headerSize+1] ^= 0xff
			return b
		}, 2},
		{"FlipLength", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[bounds[0]] = 0xff // length prefix now impossible
			return b
		}, 1},
		{"AppendGarbage", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0, 0, 0, 9, 1, 2, 3, 4)
		}, 5},
		{"Empty", func(b []byte) []byte { return nil }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			corrupted := tc.corrupt(data)
			recs, _ := Scan(corrupted)
			if len(recs) != tc.want {
				t.Fatalf("replay survived %d records, want %d", len(recs), tc.want)
			}
			for i, r := range recs {
				c, err := r.Commit()
				if err != nil || c.Clock != int64(i) {
					t.Fatalf("record %d decoded to %+v (%v)", i, c, err)
				}
			}
			// Open must truncate to the valid prefix and take appends.
			path := filepath.Join(dir, tc.name+".wal")
			if err := os.WriteFile(path, corrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			l, replayed := openT(t, path)
			if len(replayed) != tc.want {
				t.Fatalf("Open replayed %d records, want %d", len(replayed), tc.want)
			}
			if err := l.AppendCommit(CommitRecord{Class: "after", Clock: 99}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs2, valid2 := Scan(after)
			if len(recs2) != tc.want+1 || valid2 != len(after) {
				t.Fatalf("after repair+append: %d records, %d/%d bytes valid", len(recs2), valid2, len(after))
			}
			if c, _ := recs2[len(recs2)-1].Commit(); c.Class != "after" {
				t.Fatalf("appended record = %+v", c)
			}
		})
	}
}

// TestGroupCommitFlush checks that batched appends reach the file only on
// flush, and that Flush makes them durable without closing.
func TestGroupCommitFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _, err := Open(path, Options{GroupWindow: time.Hour}) // never auto-fires
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendCommit(CommitRecord{Class: "A"}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if len(data) != 0 {
		t.Fatalf("batch hit the file before flush (%d bytes)", len(data))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	recs, _ := Scan(data)
	if len(recs) != 1 {
		t.Fatalf("after flush: %d records", len(recs))
	}
}

// TestOneGroupTimer checks that a log owns one group-commit timer however
// its batches end: an explicit Flush disarms it instead of leaving it
// pending beside the one the next append would arm, so Flush/Append pairs
// create nothing, at most one timer is pending at any time, and Close
// leaves none.
func TestOneGroupTimer(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "t.wal"), Options{GroupWindow: time.Hour}) // never auto-fires
	if err != nil {
		t.Fatal(err)
	}
	rec := CommitRecord{Class: "A", Args: []int64{1}, Clock: 7}
	pair := func() {
		if err := l.AppendCommit(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	first := l.timer
	if first == nil {
		t.Fatal("the first append armed no timer")
	}
	if n := testing.AllocsPerRun(200, pair); n != 0 && !raceEnabled {
		t.Errorf("an Append/Flush pair allocates %.1f objects, want 0 (a timer per pair?)", n)
	}
	if l.timer != first {
		t.Error("the log replaced its timer")
	}
	if l.armed || first.Stop() {
		t.Error("a timer is pending after Flush")
	}
	for i := 0; i < 3; i++ { // several appends share the batch's timer
		if err := l.AppendCommit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !l.armed || l.timer != first {
		t.Error("an append to an empty batch did not arm the log's timer")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.armed || first.Stop() {
		t.Error("a timer is pending after Close")
	}
}

// FuzzScan throws arbitrary bytes at the replay path: it must never
// panic, must report a valid prefix no longer than the input, and
// re-encoding the surviving records must reproduce that prefix exactly.
func FuzzScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 1, 2})
	valid := appendFrame(nil, KindCommit, appendCommitPayload(nil, &CommitRecord{Class: "x"}))
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), 0xff, 0x00))
	// The boundary cases: a run of the smallest frames and one of the
	// smallest commit frames, and the header of the largest frame there is
	// and of one past it, torn. (The largest frame whole is
	// TestScanCostOfTheLargestFrame's: 16 MiB in the corpus would cut the
	// engine's pace from tens of thousands of inputs a run to about a
	// thousand.)
	f.Add(bytes.Repeat(appendFrame(nil, KindCommit, nil), 1000))
	f.Add(bytes.Repeat(valid, 1000))
	for _, length := range []uint32{maxRecord, maxRecord + 1} {
		torn := append(binary.BigEndian.AppendUint32(nil, length), make([]byte, 60)...)
		torn[headerSize] = byte(KindCommit)
		f.Add(torn)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			recs  []Record
			valid int
		)
		checkCost(t, "scanning", scanCost, data, func() { recs, valid = Scan(data) })
		if valid > len(data) {
			t.Fatalf("valid prefix %d exceeds input %d", valid, len(data))
		}
		var re []byte
		for _, r := range recs {
			re = appendFrame(re, r.Kind, r.Payload)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-encoding %d records diverges from the valid prefix", len(recs))
		}
	})
}

// cost bounds what decoding n bytes of outside input may allocate: perByte
// bytes a byte of input and fixed more.
type cost struct{ perByte, fixed uint64 }

func (c cost) of(input []byte) uint64 { return c.perByte*uint64(len(input)) + c.fixed }

var (
	// scanCost: Scan allocates its []Record, 32 bytes a frame, and a
	// frame is at least headerSize+1 bytes: 3.6 bytes a byte, and 4 with
	// the allocator's size classes.
	scanCost = cost{perByte: 5, fixed: 64}
	// decodeCost: a record decodes into lists sized from their counts and
	// a map per constraint, and a count cannot exceed the bytes left after
	// it (codec.Reader.Count). The worst shape known is a treaty of
	// one-coefficient constraints, a small map for every five bytes: 58
	// bytes a byte (FuzzDecodeRecord's seeds hold it).
	decodeCost = cost{perByte: 64, fixed: 4096}
)

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkCost fails t if f, a decode of input, allocates more than c allows.
// The count is the whole process's, and the fuzzing engine allocates
// beside the call now and then, so a call over the bound is measured twice
// more and the least count is the one judged. Under the race detector,
// which allocates on its own, f only runs.
func checkCost(t *testing.T, what string, c cost, input []byte, f func()) {
	if raceEnabled {
		f()
		return
	}
	limit := c.of(input)
	got := allocated(f)
	for i := 0; i < 2 && got > limit; i++ {
		got = min(got, allocated(f))
	}
	if got > limit {
		t.Fatalf("%s %d bytes allocated %d, over the bound %d", what, len(input), got, limit)
	}
}

// TestScanCostOfTheLargestFrame holds Scan of the largest frame a log may
// hold, whole and cut one byte short, to FuzzScan's bound.
func TestScanCostOfTheLargestFrame(t *testing.T) {
	frame := appendFrame(nil, KindCommit, make([]byte, maxRecord-1))
	for _, data := range [][]byte{frame, frame[:len(frame)-1]} {
		var recs []Record
		checkCost(t, "scanning", scanCost, data, func() { recs, _ = Scan(data) })
		if want := len(data) / len(frame); len(recs) != want {
			t.Errorf("%d bytes scanned to %d records, want %d", len(data), len(recs), want)
		}
	}
}

// FuzzRecordRoundTrip appends an arbitrary payload and replays it back.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(byte(1), appendCommitPayload(nil, &CommitRecord{Class: "Withdraw", Clock: 3}))
	f.Add(byte(3), []byte{})
	f.Add(byte(200), []byte{0xff, 0x00, 0x7f})
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		l, _, err := Open(path, Options{GroupWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(Kind(kind), payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, data, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if recs := records(t, data); len(recs) != 1 || recs[0].Kind != Kind(kind) || !bytes.Equal(recs[0].Payload, payload) {
			t.Fatalf("round trip: got %d records, first %+v", len(recs), recs)
		}
	})
}

// views holds one view of every kind, for tests that decode in place.
type views struct {
	commit     CommitView
	install    InstallView
	treaty     TreatyView
	membership MembershipView
}

// decode decodes r into the view of its kind and copies the view into
// the struct the kind's accessor returns, field by field and on its own —
// not through the accessors' helpers, which it is there to check.
func (v *views) decode(r Record) (any, error) {
	strs := func(bs [][]byte) []string {
		var out []string
		for _, b := range bs {
			out = append(out, string(b))
		}
		return out
	}
	pairs := func(ps []codec.Pair) map[string]int64 {
		var out map[string]int64
		for _, p := range ps {
			if out == nil {
				out = map[string]int64{}
			}
			out[string(p.Name)] = p.Val
		}
		return out
	}
	round := func(has bool, rid RoundID) *RoundID {
		if !has {
			return nil
		}
		return &rid
	}
	switch r.Kind {
	case KindCommit:
		c := &v.commit
		if err := c.Decode(r); err != nil {
			return nil, err
		}
		return CommitRecord{Class: string(c.Class), Args: append([]int64(nil), c.Args...), Site: c.Site,
			Units: append([]int(nil), c.Units...), Log: append([]int64(nil), c.Log...), Clock: c.Clock,
			Round: round(c.HasRound, c.Round), Writes: pairs(c.Writes)}, nil
	case KindInstall:
		c := &v.install
		if err := c.Decode(r); err != nil {
			return nil, err
		}
		return InstallRecord{Round: c.Round, Clock: c.Clock, Objs: strs(c.Objs),
			Base: pairs(c.Base), Drift: pairs(c.Drift), Sites: c.Sites}, nil
	case KindTreaty:
		c := &v.treaty
		if err := c.Decode(r); err != nil {
			return nil, err
		}
		rd := codec.NewReader(c.Constraints)
		cs := rd.Constraints()
		if err := rd.Close(); err != nil {
			return nil, fmt.Errorf("the constraint list the view walked does not decode: %w", err)
		}
		return TreatyRecord{Unit: c.Unit, Site: c.Site, Version: c.Version, Clock: c.Clock,
			Round: round(c.HasRound, c.Round), Constraints: cs}, nil
	case KindMembership:
		c := &v.membership
		if err := c.Decode(r); err != nil {
			return nil, err
		}
		return MembershipRecord{Epoch: c.Epoch, Width: c.Width, Status: append([]int(nil), c.Status...),
			Addrs: strs(c.Addrs), Clock: c.Clock}, nil
	}
	return nil, fmt.Errorf("wal: unknown record kind %v", r.Kind)
}

// FuzzDecodeRecord drives arbitrary payloads through the record decoders
// under every kind tag: no panic; the view decoder and the accessor built
// on it accept and refuse the same payloads and agree field for field,
// also when the view's scratch still holds another record; and a payload
// that decodes re-encodes to bytes that decode to the same record (the
// encoding is closed under its own round trip even for non-canonical
// varint input).
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range sampleRecords() {
		kind, payload := encodeRecord(f, rec)
		f.Add(byte(kind), payload)
		f.Add(byte(kind)%4+1, payload) // right payload, wrong tag
	}
	f.Add(byte(1), []byte(`{"class":"Withdraw","clock":3}`))
	f.Add(byte(9), []byte{codec.Magic, codec.Version, 9})
	// The boundary cases: as many distinct names as the codec's name table
	// holds (4096), and maps and lists whose counts claim every byte left.
	names := make(map[string]int64, 4096)
	for i := range 4096 {
		names[fmt.Sprint("d", i)] = int64(i)
	}
	kind, payload := encodeRecord(f, CommitRecord{Class: "C", Writes: names})
	f.Add(byte(kind), payload)
	oneCoeff := make([]wire.PeerConstraint, 200)
	for i := range oneCoeff {
		oneCoeff[i] = wire.PeerConstraint{Coeffs: map[string]int64{"": 1}, Op: "<="}
	}
	kind, payload = encodeRecord(f, TreatyRecord{Constraints: oneCoeff})
	f.Add(byte(kind), payload)
	for _, claims := range [][]byte{
		codec.AppendUvarint(codec.AppendString(codec.AppendHeader(nil, byte(KindCommit)), "C"), 64),
		codec.AppendUvarint(codec.AppendVarint(codec.AppendUvarint(codec.AppendInt(codec.AppendHeader(nil, byte(KindInstall)), 0), 1), 2), 64),
	} {
		f.Add(byte(claims[2]), append(claims, make([]byte, 64)...))
	}
	// Well-formed records whose sizes no deployment has: decoding is not
	// where they are refused (replay is), so they must decode like any other.
	for _, rec := range []any{
		CommitRecord{Class: "C", Site: -1},
		CommitRecord{Class: "C", Site: 1 << 40},
		InstallRecord{Objs: []string{"x"}, Base: map[string]int64{"x": 1}, Sites: 1 << 40},
		MembershipRecord{Epoch: 1, Width: 1 << 40},
	} {
		kind, payload := encodeRecord(f, rec)
		f.Add(byte(kind), payload)
	}
	// One set of views for the whole run: every decode lands on whatever
	// the one before it left in the scratch.
	var reused views
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		r := Record{Kind: Kind(kind), Payload: payload}
		var (
			rec any
			err error
		)
		checkCost(t, r.Kind.String()+": decoding", decodeCost, payload, func() { rec, err = r.Decode() })
		inPlace, verr := reused.decode(r)
		if (err == nil) != (verr == nil) {
			t.Fatalf("%v: the accessor says %v, the view decoder %v", r.Kind, err, verr)
		}
		if err != nil {
			if err.Error() != verr.Error() {
				t.Fatalf("%v: refused as %q by the accessor and as %q by the view decoder", r.Kind, err, verr)
			}
			return
		}
		if !reflect.DeepEqual(rec, inPlace) {
			t.Fatalf("%v: decoded in place to\n     %+v\nwant %+v", r.Kind, inPlace, rec)
		}
		k, enc := encodeRecord(t, rec)
		again, err := Record{Kind: k, Payload: enc}.Decode()
		if err != nil {
			t.Fatalf("%v: re-encoded record does not decode: %v", k, err)
		}
		if k != Kind(kind) || !reflect.DeepEqual(rec, again) {
			t.Fatalf("%v: re-encode round trip mismatch:\n got %+v\nwant %+v", k, again, rec)
		}
	})
}

// TestFrames: the iterator hands out the valid prefix's records in order
// with their indices, each a sub-slice of the input (Scan and Open return
// the same records), stops early on the visitor's error, and reports
// where the valid prefix ends either way.
func TestFrames(t *testing.T) {
	var data []byte
	var bounds []int
	for i := 0; i < 4; i++ {
		data = appendFrame(data, KindCommit, appendCommitPayload(nil, &CommitRecord{Class: "C", Clock: int64(i)}))
		bounds = append(bounds, len(data))
	}
	data = append(data, 0, 0, 0, 9, 1, 2) // a torn tail
	recs, valid := Scan(data)
	if len(recs) != 4 || valid != bounds[3] {
		t.Fatalf("Scan: %d records, valid prefix %d, want 4 and %d", len(recs), valid, bounds[3])
	}
	seen := 0
	end, err := Frames(data, func(i int, r Record) error {
		if i != seen {
			t.Errorf("record %d visited as index %d", seen, i)
		}
		if &r.Payload[0] != &recs[i].Payload[0] || &r.Payload[0] != &data[bounds[i]-len(r.Payload)] {
			t.Errorf("record %d does not alias the scanned bytes", i)
		}
		if cap(r.Payload) != len(r.Payload) {
			t.Errorf("record %d's payload has room to grow into the next frame", i)
		}
		seen++
		return nil
	})
	if err != nil || end != valid || seen != 4 {
		t.Fatalf("Frames = (%d, %v) over %d records, want (%d, nil) over 4", end, err, seen, valid)
	}
	stop := errors.New("enough")
	end, err = Frames(data, func(i int, _ Record) error {
		if i == 2 {
			return stop
		}
		return nil
	})
	if err != stop || end != bounds[1] {
		t.Fatalf("Frames stopped at (%d, %v), want (%d, %v): the prefix before the refused record", end, err, bounds[1], stop)
	}
}

// TestOpenReturnsPrefix: Open hands back exactly the valid prefix of what
// it read, and its Walk visits what Scan returns, counts what it visited,
// and stops on the visitor's error having counted the records before it;
// Count counts one kind. Walk checks no checksum: that was Open's.
func TestOpenReturnsPrefix(t *testing.T) {
	var data []byte
	for i := 0; i < 5; i++ {
		kind, payload := KindCommit, appendCommitPayload(nil, &CommitRecord{Class: "C", Clock: int64(i)})
		if i == 2 {
			kind, payload = KindMembership, appendMembershipPayload(nil, &MembershipRecord{Epoch: 1})
		}
		data = appendFrame(data, kind, payload)
	}
	want, valid := Scan(data)
	path := filepath.Join(t.TempDir(), "p.wal")
	if err := os.WriteFile(path, append(data, 0, 0, 0, 9, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	l, p, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !bytes.Equal(p, data[:valid]) {
		t.Fatalf("Open returned %d bytes, want the %d-byte valid prefix", len(p), valid)
	}
	if got := records(t, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("Walk visited %v, Scan returned %v", got, want)
	}
	if c, m := p.Count(KindCommit), p.Count(KindMembership); c != 4 || m != 1 {
		t.Fatalf("Count = %d commits and %d membership records, want 4 and 1", c, m)
	}
	stop := errors.New("enough")
	if n, err := p.Walk(func(i int, _ Record) error {
		if i == 3 {
			return stop
		}
		return nil
	}); n != 3 || err != stop {
		t.Fatalf("Walk stopped at (%d, %v), want (3, %v)", n, err, stop)
	}
	p[len(p)-1] ^= 0xff // the last frame's checksum no longer holds
	if n, _ := p.Walk(func(int, Record) error { return nil }); n != 5 {
		t.Fatalf("Walk visited %d records of a prefix whose checksum it was not to check, want 5", n)
	}
}
