package wal

import (
	"sync"

	"repro/internal/fabric/codec"
)

// This file is the payload encoding of WAL records: every payload is a
// codec value (three-byte header carrying the record kind, then the
// kind's fields as varints, length-prefixed strings and sorted maps).
// The frame layer — length, CRC, torn-tail repair — is in wal.go.

// payloadScratch pools the encode buffer so the append path does not
// allocate a payload per record.
var payloadScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// appendEncoded appends the payload a typed append encoded into the
// pooled buffer bp (or reports why it could not) and returns the buffer,
// grown if the payload outgrew it, to the pool.
//
//homeo:hotpath
func (l *Log) appendEncoded(kind Kind, bp *[]byte, payload []byte, err error) error {
	if err == nil {
		err = l.Append(kind, payload)
		*bp = payload[:0]
	}
	payloadScratch.Put(bp)
	return err
}

func appendRound(dst []byte, r *RoundID) []byte {
	if r == nil {
		return codec.AppendBool(dst, false)
	}
	dst = codec.AppendBool(dst, true)
	dst = codec.AppendInt(dst, r.Site)
	return codec.AppendUvarint(dst, r.Seq)
}

func appendCommitPayload(dst []byte, c *CommitRecord) []byte {
	dst = codec.AppendHeader(dst, byte(KindCommit))
	dst = codec.AppendString(dst, c.Class)
	dst = codec.AppendInt64s(dst, c.Args)
	dst = codec.AppendInt(dst, c.Site)
	dst = codec.AppendInts(dst, c.Units)
	dst = codec.AppendInt64s(dst, c.Log)
	dst = codec.AppendVarint(dst, c.Clock)
	dst = appendRound(dst, c.Round)
	return codec.AppendStringMap(dst, c.Writes)
}

func appendInstallPayload(dst []byte, c *InstallRecord) []byte {
	dst = codec.AppendHeader(dst, byte(KindInstall))
	dst = codec.AppendInt(dst, c.Round.Site)
	dst = codec.AppendUvarint(dst, c.Round.Seq)
	dst = codec.AppendVarint(dst, c.Clock)
	dst = codec.AppendStrings(dst, c.Objs)
	dst = codec.AppendStringMap(dst, c.Base)
	dst = codec.AppendStringMap(dst, c.Drift)
	return codec.AppendInt(dst, c.Sites)
}

//homeo:hotpath
func appendTreatyPayload(dst []byte, c *TreatyRecord) ([]byte, error) {
	dst = codec.AppendHeader(dst, byte(KindTreaty))
	dst = codec.AppendInt(dst, c.Unit)
	dst = codec.AppendInt(dst, c.Site)
	dst = codec.AppendVarint(dst, c.Version)
	dst = codec.AppendVarint(dst, c.Clock)
	dst = appendRound(dst, c.Round)
	return codec.AppendConstraints(dst, c.Constraints)
}

func appendMembershipPayload(dst []byte, c *MembershipRecord) []byte {
	dst = codec.AppendHeader(dst, byte(KindMembership))
	dst = codec.AppendVarint(dst, c.Epoch)
	dst = codec.AppendInt(dst, c.Width)
	dst = codec.AppendInts(dst, c.Status)
	dst = codec.AppendStrings(dst, c.Addrs)
	return codec.AppendVarint(dst, c.Clock)
}

// The views below are the decoders, one per record kind: a view decodes
// a record in place. Its byte-slice fields (names, addresses, the
// constraint list) are sub-slices of the record's payload, and its other
// slices are the view's own scratch, which the next Decode into the same
// view overwrites — so a loop over a log decodes every record into one
// view and allocates nothing once the scratch has grown. Whatever must
// outlive the payload or the next Decode is copied out by the caller;
// the Record accessors (Commit, Install, Treaty, Membership) do exactly
// that and are the form to use when that cost does not matter.
//
// A view whose Decode failed holds nothing meaningful.

// decodeRound reads the optional round id of a commit or treaty record.
//
//homeo:hotpath
func decodeRound(r *codec.Reader) (bool, RoundID) {
	if !r.Bool() {
		return false, RoundID{}
	}
	return true, RoundID{Site: r.Int(), Seq: r.Uvarint()}
}

// ownRound returns a view's round id as the record structs hold it: a
// pointer to a copy, nil when there is none.
func ownRound(has bool, rid RoundID) *RoundID {
	if !has {
		return nil
	}
	return &rid
}

// CommitView is a KindCommit record decoded in place (see CommitRecord
// for the fields). Writes lists the watermark in encoded order, which is
// sorted by name when AppendCommit wrote it.
type CommitView struct {
	Class []byte
	Args  []int64
	Site  int
	Units []int
	Log   []int64
	Clock int64
	// HasRound reports whether the record names a round; Round is it.
	HasRound bool
	Round    RoundID
	Writes   []codec.Pair
}

// Decode decodes a KindCommit record into v.
//
//homeo:hotpath
func (v *CommitView) Decode(r Record) error {
	rd, err := r.open(KindCommit)
	if err != nil {
		return err
	}
	v.Class = rd.Bytes()
	v.Args = rd.Int64sInto(v.Args[:0])
	v.Site = rd.Int()
	v.Units = rd.IntsInto(v.Units[:0])
	v.Log = rd.Int64sInto(v.Log[:0])
	v.Clock = rd.Varint()
	v.HasRound, v.Round = decodeRound(&rd)
	v.Writes = rd.PairsInto(v.Writes[:0])
	return rd.Close()
}

// InstallView is a KindInstall record decoded in place (see
// InstallRecord for the fields).
type InstallView struct {
	Round RoundID
	Clock int64
	Objs  [][]byte
	Base  []codec.Pair
	Drift []codec.Pair
	Sites int
}

// Decode decodes a KindInstall record into v.
//
//homeo:hotpath
func (v *InstallView) Decode(r Record) error {
	rd, err := r.open(KindInstall)
	if err != nil {
		return err
	}
	v.Round = RoundID{Site: rd.Int(), Seq: rd.Uvarint()}
	v.Clock = rd.Varint()
	v.Objs = rd.BytesListInto(v.Objs[:0])
	v.Base = rd.PairsInto(v.Base[:0])
	v.Drift = rd.PairsInto(v.Drift[:0])
	v.Sites = rd.Int()
	return rd.Close()
}

// TreatyView is a KindTreaty record decoded in place (see TreatyRecord
// for the fields). Constraints is the constraint list still encoded
// (codec.Reader.RawConstraints: walked and found well-formed, so
// Constraints over it cannot fail), because replay installs few of the
// generations it reads and decodes only those.
type TreatyView struct {
	Unit    int
	Site    int
	Version int64
	Clock   int64
	// HasRound reports whether the record names a round; Round is it.
	HasRound    bool
	Round       RoundID
	Constraints []byte
}

// Decode decodes a KindTreaty record into v.
//
//homeo:hotpath
func (v *TreatyView) Decode(r Record) error {
	rd, err := r.open(KindTreaty)
	if err != nil {
		return err
	}
	v.Unit = rd.Int()
	v.Site = rd.Int()
	v.Version = rd.Varint()
	v.Clock = rd.Varint()
	v.HasRound, v.Round = decodeRound(&rd)
	v.Constraints = rd.RawConstraints()
	return rd.Close()
}

// MembershipView is a KindMembership record decoded in place (see
// MembershipRecord for the fields).
type MembershipView struct {
	Epoch  int64
	Width  int
	Status []int
	Addrs  [][]byte
	Clock  int64
}

// Decode decodes a KindMembership record into v.
//
//homeo:hotpath
func (v *MembershipView) Decode(r Record) error {
	rd, err := r.open(KindMembership)
	if err != nil {
		return err
	}
	v.Epoch = rd.Varint()
	v.Width = rd.Int()
	v.Status = rd.IntsInto(v.Status[:0])
	v.Addrs = rd.BytesListInto(v.Addrs[:0])
	v.Clock = rd.Varint()
	return rd.Close()
}
