package codec

import (
	"fmt"

	"repro/homeo/wire"
)

// Message kinds of the peer protocol. The kind byte in the header is
// checked against the expected type on decode, so a request body posted
// to the wrong endpoint fails loudly instead of misparsing.
const (
	KindCollect byte = iota + 1
	KindState
	KindInstallState
	KindInstallTreaties
	KindAbort
	KindAck
	KindRejoin
	KindRejoinReply
	KindJoin
	KindJoinReply
	KindDrain
	KindDrainReply
	// Kind bytes 13 and 14 are retired, never to be reused: they named a
	// message and a reply that format version 2 carried until its install
	// became a PeerInstallState. A body of either kind decodes as nothing.
)

// Constraint op bytes (wire.PeerConstraint.Op "<=", "<", "==").
const (
	opLE byte = iota
	opLT
	opEQ
)

func appendOp(dst []byte, op string) ([]byte, error) {
	switch op {
	case "<=":
		return append(dst, opLE), nil
	case "<":
		return append(dst, opLT), nil
	case "==":
		return append(dst, opEQ), nil
	}
	return nil, fmt.Errorf("codec: unknown constraint op %q", op)
}

func (r *Reader) op() string {
	switch b := r.Byte(); b {
	case opLE:
		return "<="
	case opLT:
		return "<"
	case opEQ:
		return "=="
	default:
		if r.err == nil {
			r.fail("unknown constraint op byte %d", b)
		}
		return ""
	}
}

// AppendConstraints appends a local treaty's constraint list: a count,
// then each constraint's sorted coefficient map, constant and op byte.
// install-treaties bodies and the WAL's treaty records share it.
//
//homeo:hotpath
func AppendConstraints(dst []byte, cs []wire.PeerConstraint) ([]byte, error) {
	dst = AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = AppendStringMap(dst, c.Coeffs)
		dst = AppendVarint(dst, c.Const)
		var err error
		if dst, err = appendOp(dst, c.Op); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Constraints consumes a list encoded by AppendConstraints into a slice of
// its own: nil for an empty or malformed list.
func (r *Reader) Constraints() []wire.PeerConstraint { return orNil(r, r.ConstraintsInto(nil)) }

// ConstraintsInto consumes a list encoded by AppendConstraints into dst,
// resized to the list and its elements filled in place (a coefficient map
// dst already holds is emptied and used again), and returns it.
//
//homeo:hotpath
func (r *Reader) ConstraintsInto(dst []wire.PeerConstraint) []wire.PeerConstraint {
	dst = resized(dst, r.Count())
	for i := range dst {
		c := &dst[i]
		c.Coeffs, c.Const, c.Op = r.StringMapInto(c.Coeffs), r.Varint(), r.op()
	}
	return dst
}

// RawConstraints consumes a list encoded by AppendConstraints and
// returns it still encoded, as a sub-slice of the input: the same fields in
// the same order as ConstraintsInto, so the list is held to the same
// well-formedness (counts, lengths, op bytes) and Constraints over the
// result cannot fail, with nothing allocated. WAL replay, which throws
// most treaty generations away, reads every list this way and decodes only
// the survivors.
//
//homeo:hotpath
func (r *Reader) RawConstraints() []byte {
	start := r.off
	for i, n := 0, r.Count(); i < n && r.err == nil; i++ {
		r.skipStringMap()
		r.Varint()
		r.op()
	}
	if r.err != nil {
		return nil
	}
	return r.b[start:r.off:r.off]
}

// AppendMessage appends the binary encoding of a peer message. The
// concrete type selects the kind; unknown types are an error.
//
//homeo:hotpath
func AppendMessage(dst []byte, m any) ([]byte, error) {
	kind, ok := kindOf(m)
	if !ok {
		return nil, errUnencodable(m)
	}
	dst = AppendHeader(dst, kind)
	switch m := m.(type) {
	case *wire.PeerCollect:
		dst = AppendInt(dst, m.From)
		dst = AppendUvarint(dst, m.Round)
		dst = AppendVarint(dst, m.Clock)
		dst = AppendInts(dst, m.Units)
		return AppendStrings(dst, m.Objs), nil
	case *wire.PeerState:
		dst = AppendVarint(dst, m.Clock)
		return AppendStringMap(dst, m.Values), nil
	case *wire.PeerInstallState:
		dst = AppendInt(dst, m.From)
		dst = AppendUvarint(dst, m.Round)
		dst = AppendVarint(dst, m.Clock)
		dst = AppendStrings(dst, m.Objs)
		dst = AppendStringMap(dst, m.Folded)
		if m.Winner == nil {
			return AppendBool(dst, false), nil
		}
		dst = AppendBool(dst, true)
		dst = AppendString(dst, m.Winner.Class)
		dst = AppendInt64s(dst, m.Winner.Args)
		dst = AppendInt(dst, m.Winner.Site)
		dst = AppendInts(dst, m.Winner.Units)
		return AppendInt64s(dst, m.Winner.Log), nil
	case *wire.PeerInstallTreaties:
		dst = AppendInt(dst, m.From)
		dst = AppendUvarint(dst, m.Round)
		dst = AppendVarint(dst, m.Clock)
		dst = AppendInt(dst, m.Site)
		dst = AppendUvarint(dst, uint64(len(m.Units)))
		for _, u := range m.Units {
			dst = AppendInt(dst, u.Unit)
			dst = AppendVarint(dst, u.Version)
			var err error
			if dst, err = AppendConstraints(dst, u.Constraints); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case *wire.PeerAbort:
		dst = AppendInt(dst, m.From)
		dst = AppendUvarint(dst, m.Round)
		return AppendVarint(dst, m.Clock), nil
	case *wire.PeerAck:
		return AppendVarint(dst, m.Clock), nil
	case *wire.PeerRejoin:
		dst = AppendInt(dst, m.Site)
		dst = AppendVarint(dst, m.Clock)
		dst = AppendUvarint(dst, uint64(len(m.Units)))
		for _, u := range m.Units {
			dst = AppendInt(dst, u.Unit)
			dst = AppendVarint(dst, u.Version)
		}
		return dst, nil
	case *wire.PeerRejoinReply:
		dst = AppendVarint(dst, m.Clock)
		dst = AppendUvarint(dst, uint64(len(m.Units)))
		for _, u := range m.Units {
			dst = AppendInt(dst, u.Unit)
			dst = AppendVarint(dst, u.Version)
			dst = AppendBool(dst, u.Force)
			dst = AppendStringMap(dst, u.Base)
		}
		return dst, nil
	case *wire.PeerJoin:
		dst = AppendInt(dst, m.Site)
		dst = AppendUvarint(dst, m.Round)
		dst = AppendVarint(dst, m.Clock)
		dst = AppendString(dst, m.Addr)
		return AppendInt(dst, m.Phase), nil
	case *wire.PeerJoinReply:
		dst = AppendVarint(dst, m.Clock)
		dst = AppendVarint(dst, m.Epoch)
		dst = AppendUvarint(dst, uint64(len(m.Units)))
		for _, u := range m.Units {
			dst = AppendInt(dst, u.Unit)
			dst = AppendVarint(dst, u.Version)
			dst = AppendStringMap(dst, u.Base)
		}
		return dst, nil
	case *wire.PeerDrain:
		dst = AppendInt(dst, m.Site)
		return AppendVarint(dst, m.Clock), nil
	case *wire.PeerDrainReply:
		dst = AppendVarint(dst, m.Clock)
		return AppendVarint(dst, m.Epoch), nil
	}
	return dst, nil
}

// errUnencodable formats the cold-path error for a message type the
// codec does not know, kept out of the //homeo:hotpath body.
func errUnencodable(m any) error { return fmt.Errorf("codec: cannot encode %T", m) }

// DecodeMessage decodes a peer message into m, whose concrete type must
// match the encoded kind. Whatever m held is replaced, its slices and maps
// used again where they fit (see Decoder for what a caller that decodes
// message after message into the same value gains).
func DecodeMessage(data []byte, m any) error {
	r := Reader{b: data}
	return r.message(m)
}

// Decoder decodes peer messages for a caller that reads one after another
// into the same values: the value's slices and maps are filled in place,
// and a name the decoder has seen before — an object, a class — is the
// string it made then, so a message of a shape seen before decodes without
// allocating. The zero Decoder is ready; it is not safe for concurrent use.
// What it decodes aliases nothing of its input.
type Decoder struct {
	names map[string]string
}

// Decode decodes a peer message into m as DecodeMessage does.
//
//homeo:hotpath
func (d *Decoder) Decode(data []byte, m any) error {
	if d.names == nil {
		d.names = make(map[string]string) //homeo:allowalloc once per decoder
	}
	if len(d.names) >= maxNames {
		clear(d.names)
	}
	r := Reader{b: data, names: d.names}
	return r.message(m)
}

// message consumes the whole of the input as one peer message into m.
//
//homeo:hotpath
func (r *Reader) message(m any) error {
	kind := r.Header()
	if r.err != nil {
		return r.err
	}
	want, ok := kindOf(m)
	if !ok {
		return errUndecodable(m)
	}
	if kind != want {
		return errKind(kind, m)
	}
	switch m := m.(type) {
	case *wire.PeerCollect:
		m.From = r.Int()
		m.Round = r.Uvarint()
		m.Clock = r.Varint()
		m.Units = r.IntsInto(m.Units[:0])
		m.Objs = r.StringsInto(m.Objs[:0])
	case *wire.PeerState:
		m.Clock = r.Varint()
		m.Values = r.StringMapInto(m.Values)
	case *wire.PeerInstallState:
		m.From = r.Int()
		m.Round = r.Uvarint()
		m.Clock = r.Varint()
		m.Objs = r.StringsInto(m.Objs[:0])
		m.Folded = r.StringMapInto(m.Folded)
		if !r.Bool() {
			m.Winner = nil
			break
		}
		if m.Winner == nil {
			m.Winner = new(wire.PeerWinner)
		}
		w := m.Winner
		w.Class = r.String()
		w.Args = r.Int64sInto(w.Args[:0])
		w.Site = r.Int()
		w.Units = r.IntsInto(w.Units[:0])
		w.Log = r.Int64sInto(w.Log[:0])
	case *wire.PeerInstallTreaties:
		m.From = r.Int()
		m.Round = r.Uvarint()
		m.Clock = r.Varint()
		m.Site = r.Int()
		m.Units = resized(m.Units, r.Count())
		for i := range m.Units {
			u := &m.Units[i]
			u.Unit = r.Int()
			u.Version = r.Varint()
			u.Constraints = r.ConstraintsInto(u.Constraints)
		}
	case *wire.PeerAbort:
		m.From = r.Int()
		m.Round = r.Uvarint()
		m.Clock = r.Varint()
	case *wire.PeerAck:
		m.Clock = r.Varint()
	case *wire.PeerRejoin:
		m.Site = r.Int()
		m.Clock = r.Varint()
		m.Units = resized(m.Units, r.Count())
		for i := range m.Units {
			m.Units[i] = wire.PeerUnitVersion{Unit: r.Int(), Version: r.Varint()}
		}
	case *wire.PeerRejoinReply:
		m.Clock = r.Varint()
		m.Units = resized(m.Units, r.Count())
		for i := range m.Units {
			u := &m.Units[i]
			u.Unit, u.Version, u.Force, u.Base = r.Int(), r.Varint(), r.Bool(), r.StringMapInto(u.Base)
		}
	case *wire.PeerJoin:
		m.Site = r.Int()
		m.Round = r.Uvarint()
		m.Clock = r.Varint()
		m.Addr = r.String()
		m.Phase = r.Int()
	case *wire.PeerJoinReply:
		m.Clock = r.Varint()
		m.Epoch = r.Varint()
		m.Units = resized(m.Units, r.Count())
		for i := range m.Units {
			u := &m.Units[i]
			u.Unit, u.Version, u.Base = r.Int(), r.Varint(), r.StringMapInto(u.Base)
		}
	case *wire.PeerDrain:
		m.Site = r.Int()
		m.Clock = r.Varint()
	case *wire.PeerDrainReply:
		m.Clock = r.Varint()
		m.Epoch = r.Varint()
	}
	return r.Close()
}

// kindOf returns the kind byte a message of m's type is encoded with.
func kindOf(m any) (kind byte, ok bool) {
	switch m.(type) {
	case *wire.PeerCollect:
		return KindCollect, true
	case *wire.PeerState:
		return KindState, true
	case *wire.PeerInstallState:
		return KindInstallState, true
	case *wire.PeerInstallTreaties:
		return KindInstallTreaties, true
	case *wire.PeerAbort:
		return KindAbort, true
	case *wire.PeerAck:
		return KindAck, true
	case *wire.PeerRejoin:
		return KindRejoin, true
	case *wire.PeerRejoinReply:
		return KindRejoinReply, true
	case *wire.PeerJoin:
		return KindJoin, true
	case *wire.PeerJoinReply:
		return KindJoinReply, true
	case *wire.PeerDrain:
		return KindDrain, true
	case *wire.PeerDrainReply:
		return KindDrainReply, true
	}
	return 0, false
}

// The cold-path errors of Decode, kept out of the //homeo:hotpath body.

func errUndecodable(m any) error { return fmt.Errorf("codec: cannot decode into %T", m) }

func errKind(kind byte, m any) error {
	return fmt.Errorf("codec: message kind %d decoded as %T", kind, m)
}
