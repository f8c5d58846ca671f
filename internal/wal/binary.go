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

func decodeRound(r *codec.Reader) *RoundID {
	if !r.Bool() {
		return nil
	}
	return &RoundID{Site: r.Int(), Seq: r.Uvarint()}
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

func decodeCommit(r *codec.Reader) CommitRecord {
	return CommitRecord{
		Class:  r.String(),
		Args:   r.Int64s(),
		Site:   r.Int(),
		Units:  r.Ints(),
		Log:    r.Int64s(),
		Clock:  r.Varint(),
		Round:  decodeRound(r),
		Writes: r.StringMap(),
	}
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

func decodeInstall(r *codec.Reader) InstallRecord {
	return InstallRecord{
		Round: RoundID{Site: r.Int(), Seq: r.Uvarint()},
		Clock: r.Varint(),
		Objs:  r.Strings(),
		Base:  r.StringMap(),
		Drift: r.StringMap(),
		Sites: r.Int(),
	}
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

func decodeTreaty(r *codec.Reader) TreatyRecord {
	return TreatyRecord{
		Unit:        r.Int(),
		Site:        r.Int(),
		Version:     r.Varint(),
		Clock:       r.Varint(),
		Round:       decodeRound(r),
		Constraints: r.Constraints(),
	}
}

func appendMembershipPayload(dst []byte, c *MembershipRecord) []byte {
	dst = codec.AppendHeader(dst, byte(KindMembership))
	dst = codec.AppendVarint(dst, c.Epoch)
	dst = codec.AppendInt(dst, c.Width)
	dst = codec.AppendInts(dst, c.Status)
	dst = codec.AppendStrings(dst, c.Addrs)
	return codec.AppendVarint(dst, c.Clock)
}

func decodeMembership(r *codec.Reader) MembershipRecord {
	return MembershipRecord{
		Epoch:  r.Varint(),
		Width:  r.Int(),
		Status: r.Ints(),
		Addrs:  r.Strings(),
		Clock:  r.Varint(),
	}
}
