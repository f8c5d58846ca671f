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

// Constraints consumes a list encoded by AppendConstraints.
func (r *Reader) Constraints() []wire.PeerConstraint { return r.constraints(true) }

// RawConstraints consumes a list encoded by AppendConstraints and
// returns it still encoded, as a sub-slice of the input: the same walk as
// Constraints, so the list is held to the same well-formedness (counts,
// lengths, op bytes) and Constraints over the result cannot fail, with
// nothing allocated. WAL replay, which throws most treaty generations
// away, reads every list this way and decodes only the survivors.
//
//homeo:hotpath
func (r *Reader) RawConstraints() []byte {
	start := r.off
	r.constraints(false)
	if r.err != nil {
		return nil
	}
	return r.b[start:r.off:r.off]
}

// constraints is the one walk of an encoded constraint list; keep says
// whether to build what it walks.
//
//homeo:hotpath
func (r *Reader) constraints(keep bool) []wire.PeerConstraint {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	var cs []wire.PeerConstraint
	if keep {
		cs = make([]wire.PeerConstraint, n)
	}
	for i := 0; i < n; i++ {
		coeffs, c, op := r.stringMap(keep), r.Varint(), r.op()
		if keep {
			cs[i] = wire.PeerConstraint{Coeffs: coeffs, Const: c, Op: op}
		}
	}
	return cs
}

// AppendMessage appends the binary encoding of a peer message. The
// concrete type selects the kind; unknown types are an error.
//
//homeo:hotpath
func AppendMessage(dst []byte, m any) ([]byte, error) {
	switch m := m.(type) {
	case *wire.PeerCollect:
		dst = AppendHeader(dst, KindCollect)
		dst = AppendInt(dst, m.From)
		dst = AppendUvarint(dst, m.Round)
		dst = AppendVarint(dst, m.Clock)
		dst = AppendInts(dst, m.Units)
		return AppendStrings(dst, m.Objs), nil
	case *wire.PeerState:
		dst = AppendHeader(dst, KindState)
		dst = AppendVarint(dst, m.Clock)
		return AppendStringMap(dst, m.Values), nil
	case *wire.PeerInstallState:
		dst = AppendHeader(dst, KindInstallState)
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
		dst = AppendHeader(dst, KindInstallTreaties)
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
		dst = AppendHeader(dst, KindAbort)
		dst = AppendInt(dst, m.From)
		dst = AppendUvarint(dst, m.Round)
		return AppendVarint(dst, m.Clock), nil
	case *wire.PeerAck:
		dst = AppendHeader(dst, KindAck)
		return AppendVarint(dst, m.Clock), nil
	case *wire.PeerRejoin:
		dst = AppendHeader(dst, KindRejoin)
		dst = AppendInt(dst, m.Site)
		dst = AppendVarint(dst, m.Clock)
		dst = AppendUvarint(dst, uint64(len(m.Units)))
		for _, u := range m.Units {
			dst = AppendInt(dst, u.Unit)
			dst = AppendVarint(dst, u.Version)
		}
		return dst, nil
	case *wire.PeerRejoinReply:
		dst = AppendHeader(dst, KindRejoinReply)
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
		dst = AppendHeader(dst, KindJoin)
		dst = AppendInt(dst, m.Site)
		dst = AppendUvarint(dst, m.Round)
		dst = AppendVarint(dst, m.Clock)
		dst = AppendString(dst, m.Addr)
		return AppendInt(dst, m.Phase), nil
	case *wire.PeerJoinReply:
		dst = AppendHeader(dst, KindJoinReply)
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
		dst = AppendHeader(dst, KindDrain)
		dst = AppendInt(dst, m.Site)
		return AppendVarint(dst, m.Clock), nil
	case *wire.PeerDrainReply:
		dst = AppendHeader(dst, KindDrainReply)
		dst = AppendVarint(dst, m.Clock)
		return AppendVarint(dst, m.Epoch), nil
	}
	return nil, errUnencodable(m)
}

// errUnencodable formats the cold-path error for a message type the
// codec does not know, kept out of the //homeo:hotpath body.
func errUnencodable(m any) error { return fmt.Errorf("codec: cannot encode %T", m) }

// DecodeMessage decodes a peer message into m, whose concrete type must
// match the encoded kind.
func DecodeMessage(data []byte, m any) error {
	r := NewReader(data)
	kind := r.Header()
	if r.err != nil {
		return r.err
	}
	want := func(k byte) bool {
		if kind != k {
			r.fail("message kind %d decoded as %T", kind, m)
			return false
		}
		return true
	}
	switch m := m.(type) {
	case *wire.PeerCollect:
		if want(KindCollect) {
			m.From = r.Int()
			m.Round = r.Uvarint()
			m.Clock = r.Varint()
			m.Units = r.Ints()
			m.Objs = r.Strings()
		}
	case *wire.PeerState:
		if want(KindState) {
			m.Clock = r.Varint()
			m.Values = r.StringMap()
		}
	case *wire.PeerInstallState:
		if want(KindInstallState) {
			m.From = r.Int()
			m.Round = r.Uvarint()
			m.Clock = r.Varint()
			m.Objs = r.Strings()
			m.Folded = r.StringMap()
			if r.Bool() {
				m.Winner = &wire.PeerWinner{
					Class: r.String(),
					Args:  r.Int64s(),
					Site:  r.Int(),
					Units: r.Ints(),
					Log:   r.Int64s(),
				}
			} else {
				m.Winner = nil
			}
		}
	case *wire.PeerInstallTreaties:
		if want(KindInstallTreaties) {
			m.From = r.Int()
			m.Round = r.Uvarint()
			m.Clock = r.Varint()
			m.Site = r.Int()
			if n := r.Count(); r.err == nil && n > 0 {
				m.Units = make([]wire.PeerUnitTreaty, n)
				for i := range m.Units {
					u := &m.Units[i]
					u.Unit = r.Int()
					u.Version = r.Varint()
					u.Constraints = r.Constraints()
				}
			}
		}
	case *wire.PeerAbort:
		if want(KindAbort) {
			m.From = r.Int()
			m.Round = r.Uvarint()
			m.Clock = r.Varint()
		}
	case *wire.PeerAck:
		if want(KindAck) {
			m.Clock = r.Varint()
		}
	case *wire.PeerRejoin:
		if want(KindRejoin) {
			m.Site = r.Int()
			m.Clock = r.Varint()
			if n := r.Count(); r.err == nil && n > 0 {
				m.Units = make([]wire.PeerUnitVersion, n)
				for i := range m.Units {
					m.Units[i] = wire.PeerUnitVersion{Unit: r.Int(), Version: r.Varint()}
				}
			}
		}
	case *wire.PeerRejoinReply:
		if want(KindRejoinReply) {
			m.Clock = r.Varint()
			if n := r.Count(); r.err == nil && n > 0 {
				m.Units = make([]wire.PeerRejoinUnit, n)
				for i := range m.Units {
					m.Units[i] = wire.PeerRejoinUnit{
						Unit:    r.Int(),
						Version: r.Varint(),
						Force:   r.Bool(),
						Base:    r.StringMap(),
					}
				}
			}
		}
	case *wire.PeerJoin:
		if want(KindJoin) {
			m.Site = r.Int()
			m.Round = r.Uvarint()
			m.Clock = r.Varint()
			m.Addr = r.String()
			m.Phase = r.Int()
		}
	case *wire.PeerJoinReply:
		if want(KindJoinReply) {
			m.Clock = r.Varint()
			m.Epoch = r.Varint()
			if n := r.Count(); r.err == nil && n > 0 {
				m.Units = make([]wire.PeerJoinUnit, n)
				for i := range m.Units {
					m.Units[i] = wire.PeerJoinUnit{
						Unit:    r.Int(),
						Version: r.Varint(),
						Base:    r.StringMap(),
					}
				}
			}
		}
	case *wire.PeerDrain:
		if want(KindDrain) {
			m.Site = r.Int()
			m.Clock = r.Varint()
		}
	case *wire.PeerDrainReply:
		if want(KindDrainReply) {
			m.Clock = r.Varint()
			m.Epoch = r.Varint()
		}
	default:
		return fmt.Errorf("codec: cannot decode into %T", m)
	}
	return r.Close()
}
