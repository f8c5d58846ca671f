package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"repro/homeo/wire"
	"repro/internal/fabric/codec"
)

// Kind tags a record's payload type.
type Kind byte

// The record kinds a site logs.
const (
	// KindCommit is a committed transaction: its identity, Lamport clock,
	// and the site's own-delta watermark after the commit.
	KindCommit Kind = 1
	// KindInstall is a synchronization round's state install: the folded
	// base values and the own-delta drift carried over, keyed by round.
	KindInstall Kind = 2
	// KindTreaty is one installed local treaty generation for a unit.
	KindTreaty Kind = 3
	// KindMembership is a topology-epoch change: the full membership table
	// after a site joined or drained. Replay restores the latest epoch.
	KindMembership Kind = 4
)

// String names the record kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCommit:
		return "commit"
	case KindInstall:
		return "install"
	case KindTreaty:
		return "treaty"
	case KindMembership:
		return "membership"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Record is one log record as framed: a kind tag and its codec-encoded
// payload (internal/fabric/codec). The typed accessors decode it. A
// record that Frames, Scan or Open produced does not own its payload: it
// is a sub-slice of the bytes that were scanned (see the package comment).
type Record struct {
	Kind    Kind
	Payload []byte
}

// RoundID names a synchronization round (mirrors fabric.RoundID without
// importing it: the WAL is below the fabric in the dependency order).
type RoundID struct {
	Site int    `json:"site"`
	Seq  uint64 `json:"seq"`
}

// The json tags on the record structs below serve one reader: the
// human-readable dump of `homeostasis-analyze -wal`. Nothing is ever
// parsed from JSON.

// CommitRecord is a KindCommit payload: enough to rebuild the commit-log
// entry and to restore the site's own delta objects by replay. Writes is
// the own-delta watermark — the absolute post-commit value of every delta
// object in the transaction's footprint — so replaying records in order
// reproduces the partition without re-executing transaction logic.
type CommitRecord struct {
	Class string  `json:"class"`
	Args  []int64 `json:"args,omitempty"`
	Site  int     `json:"site"`
	Units []int   `json:"units,omitempty"`
	Log   []int64 `json:"log,omitempty"`
	Clock int64   `json:"clock"`
	// Round is set for cleanup-phase commits (the winning transaction and
	// adopted rounds): it is the cluster-wide dedup key when per-site logs
	// merge, because an adopted commit may be logged at several sites.
	Round *RoundID `json:"round,omitempty"`
	// Writes maps delta object names to their post-commit values.
	Writes map[string]int64 `json:"writes,omitempty"`
}

// InstallRecord is a KindInstall payload: one synchronization round's
// state install at this site. Replay sets each object's base to the
// folded value, zeroes every site's delta snapshot for it, then applies
// Drift (the site's own-delta values preserved across the install).
type InstallRecord struct {
	Round RoundID `json:"round"`
	Clock int64   `json:"clock"`
	// Objs is the round's object footprint; Base the folded values.
	Objs []string         `json:"objs"`
	Base map[string]int64 `json:"base"`
	// Drift maps own-delta object names to the values they keep through
	// the install (local commits that raced the round's network gap).
	Drift map[string]int64 `json:"drift,omitempty"`
	// Sites is the cluster width at log time (how many delta snapshots to
	// zero per object on replay).
	Sites int `json:"sites"`
}

// TreatyRecord is a KindTreaty payload: one installed local treaty
// generation. Constraints is the treaty in the peer protocol's constraint
// form, written by the same encoder install-treaties bodies use
// (codec.AppendConstraints).
type TreatyRecord struct {
	Unit        int                   `json:"unit"`
	Site        int                   `json:"site"`
	Version     int64                 `json:"version"`
	Clock       int64                 `json:"clock"`
	Round       *RoundID              `json:"round,omitempty"`
	Constraints []wire.PeerConstraint `json:"constraints,omitempty"`
}

// MembershipRecord is a KindMembership payload: the full membership
// table as of one topology epoch. Records are written whole (not as
// diffs) so replay just keeps the last one, and a torn tail can never
// leave a half-applied epoch.
type MembershipRecord struct {
	// Epoch is the topology epoch this table establishes.
	Epoch int64 `json:"epoch"`
	// Width is the cluster width (gone sites keep their slots).
	Width int `json:"width"`
	// Status[k] is site k's membership status: 0 active, 1 gone.
	Status []int `json:"status,omitempty"`
	// Addrs[k] is site k's peer base URL ("" in-process), so recovery can
	// rebuild the grown transport.
	Addrs []string `json:"addrs,omitempty"`
	Clock int64    `json:"clock"`
}

// open starts decoding r's payload as a record of the given kind. Both
// tags must agree with it: the frame's kind byte (a caller asking for the
// wrong accessor) and the kind inside the payload's codec header (a frame
// whose tag and payload disagree is corrupt however good its CRC). A
// payload with a foreign header opens; the reader carries the refusal and
// the decoder's Close returns it.
//
//homeo:hotpath
func (r Record) open(kind Kind) (codec.Reader, error) {
	if r.Kind != kind {
		return codec.Reader{}, errNotA(r.Kind, kind)
	}
	rd := codec.MakeReader(r.Payload)
	if got := Kind(rd.Header()); rd.Err() == nil && got != kind {
		return rd, errHolds(kind, got)
	}
	return rd, nil
}

func errNotA(got, want Kind) error { return fmt.Errorf("wal: %v record is not a %v", got, want) }

func errHolds(tag, payload Kind) error {
	return fmt.Errorf("wal: %v record holds a %v payload", tag, payload)
}

// The typed accessors below return a record that owns everything it
// holds. Each is its kind's view decoder (binary.go) followed by a copy
// of what the view borrowed.

// Commit decodes a KindCommit record.
func (r Record) Commit() (CommitRecord, error) {
	var v CommitView
	if err := v.Decode(r); err != nil {
		return CommitRecord{}, err
	}
	return CommitRecord{
		Class: string(v.Class), Args: v.Args, Site: v.Site, Units: v.Units, Log: v.Log,
		Clock: v.Clock, Round: ownRound(v.HasRound, v.Round), Writes: pairMap(v.Writes),
	}, nil
}

// Install decodes a KindInstall record.
func (r Record) Install() (InstallRecord, error) {
	var v InstallView
	if err := v.Decode(r); err != nil {
		return InstallRecord{}, err
	}
	return InstallRecord{
		Round: v.Round, Clock: v.Clock, Objs: stringsOf(v.Objs),
		Base: pairMap(v.Base), Drift: pairMap(v.Drift), Sites: v.Sites,
	}, nil
}

// Treaty decodes a KindTreaty record.
func (r Record) Treaty() (TreatyRecord, error) {
	var v TreatyView
	if err := v.Decode(r); err != nil {
		return TreatyRecord{}, err
	}
	// The view walked the list, so this read of it cannot fail.
	cs := codec.NewReader(v.Constraints).Constraints()
	return TreatyRecord{
		Unit: v.Unit, Site: v.Site, Version: v.Version, Clock: v.Clock,
		Round: ownRound(v.HasRound, v.Round), Constraints: cs,
	}, nil
}

// Membership decodes a KindMembership record.
func (r Record) Membership() (MembershipRecord, error) {
	var v MembershipView
	if err := v.Decode(r); err != nil {
		return MembershipRecord{}, err
	}
	return MembershipRecord{
		Epoch: v.Epoch, Width: v.Width, Status: v.Status, Addrs: stringsOf(v.Addrs), Clock: v.Clock,
	}, nil
}

// pairMap copies decoded map entries into a map of their own, a later
// entry of the same name winning; nil for none.
func pairMap(ps []codec.Pair) map[string]int64 {
	if len(ps) == 0 {
		return nil
	}
	m := make(map[string]int64, len(ps))
	for _, p := range ps {
		m[string(p.Name)] = p.Val
	}
	return m
}

// stringsOf copies borrowed strings; nil for none.
func stringsOf(bs [][]byte) []string {
	if len(bs) == 0 {
		return nil
	}
	ss := make([]string, len(bs))
	for i, b := range bs {
		ss[i] = string(b)
	}
	return ss
}

// Decode decodes the record into the struct its kind names (a
// CommitRecord, InstallRecord, TreatyRecord or MembershipRecord), for
// readers that treat every kind alike.
func (r Record) Decode() (any, error) {
	switch r.Kind {
	case KindCommit:
		return r.Commit()
	case KindInstall:
		return r.Install()
	case KindTreaty:
		return r.Treaty()
	case KindMembership:
		return r.Membership()
	}
	return nil, fmt.Errorf("wal: unknown record kind %v", r.Kind)
}

// Options configures a log.
type Options struct {
	// Sync fsyncs every flushed batch. Off, a flush is a plain write(2):
	// the batch survives a process kill (the kernel holds the pages) but
	// not a host power loss. The experiment goldens and simulator
	// timelines are unaffected either way — logging never charges virtual
	// time — but fsync costs real latency, so it is opt-in.
	Sync bool
	// GroupWindow bounds how long an appended record may sit in the
	// in-memory batch before a background flush writes it (group commit).
	// Zero means the 2ms default; negative flushes inline on every append.
	GroupWindow time.Duration
}

// DefaultGroupWindow is the group-commit batching window when
// Options.GroupWindow is zero.
const DefaultGroupWindow = 2 * time.Millisecond

// maxRecord bounds a record's encoded payload; a length prefix beyond it
// is treated as a torn tail, not an allocation request.
const maxRecord = 16 << 20

// headerSize is the per-record frame overhead: a 4-byte big-endian
// payload length and a 4-byte IEEE CRC32 of the payload.
const headerSize = 8

// ErrClosed is returned by appends to a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is one site's append-only write-ahead log. Appends accumulate in
// an in-memory batch flushed by a background group-commit timer, by size,
// or by an explicit Flush at externalization points (a site flushes
// before any state escapes to a peer, so a crash can never lose a record
// another site's state depends on). All methods are safe for concurrent
// use.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	opts Options
	buf  []byte
	// timer is the log's one group-commit timer, created by the first
	// append that needs it and re-armed by Reset ever after; armed reports
	// that it is pending for the current batch. Every flush disarms it, so
	// a batch flushed early (an explicit Flush, the size threshold) leaves
	// no timer behind for the next append to double.
	timer  *time.Timer
	armed  bool
	closed bool
	err    error
}

// Open opens (or creates) the log at path, scans any existing content,
// repairs a torn tail by truncating to the last valid record, and returns
// the log positioned for appends plus the valid records found. A torn
// tail is expected after a crash (the final batch may have been half
// written) and is not an error.
func Open(path string, opts Options) (*Log, []Record, error) {
	if opts.GroupWindow == 0 {
		opts.GroupWindow = DefaultGroupWindow
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	recs, valid := Scan(data)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	return &Log{f: f, opts: opts}, recs, nil
}

// nextFrame reads the frame that starts at data[off:]: its checksum, its
// payload (kind byte first) and the offset just past it. ok is false at a
// short header, an impossible length or a short payload; the checksum is
// the caller's to verify.
//
//homeo:hotpath
func nextFrame(data []byte, off int) (sum uint32, payload []byte, end int, ok bool) {
	if len(data)-off < headerSize {
		return 0, nil, off, false
	}
	length := binary.BigEndian.Uint32(data[off:])
	if length < 1 || length > maxRecord {
		return 0, nil, off, false
	}
	end = off + headerSize + int(length)
	if end > len(data) {
		return 0, nil, off, false
	}
	return binary.BigEndian.Uint32(data[off+4:]), data[off+headerSize : end : end], end, true
}

// Frames visits the longest valid record prefix of data in order, handing
// visit each record and its index, and returns the byte offset where the
// valid prefix ends. It stops cleanly at the first torn frame — a short
// header, an impossible length, a short payload, or a checksum mismatch —
// and early, returning the error, if visit returns one.
//
// Nothing is copied: every record's payload is a sub-slice of data,
// valid while data is and no longer.
//
//homeo:hotpath
func Frames(data []byte, visit func(i int, r Record) error) (int, error) {
	off := 0
	for i := 0; ; i++ {
		sum, payload, end, ok := nextFrame(data, off)
		if !ok || crc32.ChecksumIEEE(payload) != sum {
			return off, nil
		}
		if err := visit(i, Record{Kind: Kind(payload[0]), Payload: payload[1:]}); err != nil {
			return off, err
		}
		off = end
	}
}

// Scan decodes the longest valid record prefix of data (see Frames),
// returning the records and the byte offset where the valid prefix ends.
// The records alias data.
func Scan(data []byte) ([]Record, int) {
	// Size the slice by hopping length prefixes: an upper bound on what
	// the checksummed pass will keep, and exact for an intact log.
	n := 0
	for off := 0; ; n++ {
		_, _, end, ok := nextFrame(data, off)
		if !ok {
			break
		}
		off = end
	}
	recs := make([]Record, 0, n)
	valid, _ := Frames(data, func(_ int, r Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, valid
}

// appendFrame encodes one record frame onto buf.
//
//homeo:hotpath
func appendFrame(buf []byte, kind Kind, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(1+len(payload)))
	start := len(buf)
	buf = append(buf, hdr[:]...)
	buf = append(buf, byte(kind))
	buf = append(buf, payload...)
	binary.BigEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+headerSize:]))
	return buf
}

// Append adds one record to the batch. The record is durable after the
// next flush (group-commit timer, size threshold, or explicit Flush).
//
//homeo:hotpath
func (l *Log) Append(kind Kind, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.buf = appendFrame(l.buf, kind, payload)
	if l.opts.GroupWindow < 0 || len(l.buf) >= 1<<20 {
		return l.flushLocked()
	}
	if !l.armed {
		l.armed = true
		if l.timer == nil {
			l.timer = time.AfterFunc(l.opts.GroupWindow, l.groupFlush)
		} else {
			l.timer.Reset(l.opts.GroupWindow)
		}
	}
	return nil
}

// groupFlush is the group-commit timer's callback. A failed group flush
// resurfaces on the next synchronous Flush/Append, which every
// externalizing path performs.
func (l *Log) groupFlush() { _ = l.Flush() }

// The typed appends encode the record before they return and keep none of
// it: a caller may build it from scratch it reuses for the next record.

// AppendCommit appends a commit record.
//
//homeo:hotpath
func (l *Log) AppendCommit(c CommitRecord) error {
	bp := payloadScratch.Get().(*[]byte)
	return l.appendEncoded(KindCommit, bp, appendCommitPayload((*bp)[:0], &c), nil)
}

// AppendInstall appends a state-install record.
func (l *Log) AppendInstall(c InstallRecord) error {
	bp := payloadScratch.Get().(*[]byte)
	return l.appendEncoded(KindInstall, bp, appendInstallPayload((*bp)[:0], &c), nil)
}

// AppendTreaty appends a treaty-generation record. A constraint whose op
// is not one of "<=", "<", "==" is refused and nothing is appended.
func (l *Log) AppendTreaty(c TreatyRecord) error {
	bp := payloadScratch.Get().(*[]byte)
	payload, err := appendTreatyPayload((*bp)[:0], &c)
	return l.appendEncoded(KindTreaty, bp, payload, err)
}

// AppendMembership appends a topology-epoch record.
func (l *Log) AppendMembership(c MembershipRecord) error {
	bp := payloadScratch.Get().(*[]byte)
	return l.appendEncoded(KindMembership, bp, appendMembershipPayload((*bp)[:0], &c), nil)
}

// Flush writes the batch to the file (and fsyncs it under Options.Sync).
// Call before externalizing state that depends on batched records.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if l.armed {
		// The batch the timer was armed for is being written now. If the
		// timer already fired, its callback is waiting for the lock and
		// will find an empty batch.
		l.timer.Stop()
		l.armed = false
	}
	if l.err != nil {
		return l.err
	}
	if len(l.buf) == 0 || l.f == nil {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	l.buf = l.buf[:0]
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: %w", err)
			return l.err
		}
	}
	return nil
}

// Close flushes the batch and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	ferr := l.flushLocked()
	l.closed = true
	if l.f != nil {
		if cerr := l.f.Close(); ferr == nil && cerr != nil {
			ferr = fmt.Errorf("wal: %w", cerr)
		}
		l.f = nil
	}
	return ferr
}
