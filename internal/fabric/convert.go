package fabric

import (
	"cmp"
	"fmt"
	"slices"

	"repro/homeo/wire"
	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/treaty"
)

// --- fabric message ↔ wire message conversions ---------------------------
//
// A conversion to wire form fills a wire value it is handed — the scratch
// of a peer call or of a served request, filled before and filled again:
// slices are cut and appended to, maps emptied and refilled, and nothing of
// the fabric message is aliased, so the scratch can be scribbled over once
// the bytes are out. A conversion from wire form builds what its reader may
// keep, with two exceptions on the serving side named at reqScratch.

// reqScratch is the part of a served request's fabric message that is
// scratch: the round's object footprint and its folded values, which a Node
// reads while it handles the message and never keeps. Everything else a
// conversion from wire form builds is fresh — the collect's unit list (the
// round grant keeps it), the install's WinnerCommit (the grant adopts it on
// failover), the local treaties (the site installs them) — and so is all of
// a rejoin, a join and a drain, which are too rare to be worth a rule.
type reqScratch struct {
	objs   []lang.ObjID
	folded lang.Database
}

// dbToWire fills dst (made when nil) with d.
func dbToWire(dst map[string]int64, d lang.Database) map[string]int64 {
	if dst == nil {
		dst = make(map[string]int64, len(d))
	}
	clear(dst)
	for obj, v := range d {
		dst[string(obj)] = v
	}
	return dst
}

// dbFromWire fills dst (made when nil) with m.
func dbFromWire(dst lang.Database, m map[string]int64) lang.Database {
	if dst == nil {
		dst = make(lang.Database, len(m))
	}
	clear(dst)
	for name, v := range m {
		dst[lang.ObjID(name)] = v
	}
	return dst
}

// next returns s one element longer and a pointer to the new last element:
// the one s held there before when it has room — to be filled in place,
// reusing what it holds — else a zero one.
func next[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[len(s)-1]
}

func objsToWire(dst []string, objs []lang.ObjID) []string {
	dst = dst[:0]
	for _, o := range objs {
		dst = append(dst, string(o))
	}
	return dst
}

func objsFromWire(dst []lang.ObjID, names []string) []lang.ObjID {
	dst = dst[:0]
	for _, n := range names {
		dst = append(dst, lang.ObjID(n))
	}
	return dst
}

func collectToWire(w *wire.PeerCollect, m CollectState) {
	w.From, w.Round, w.Clock = m.Round.Site, m.Round.Seq, m.Clock
	w.Units = append(w.Units[:0], m.Units...)
	w.Objs = objsToWire(w.Objs, m.Objs)
}

func collectFromWire(sc *reqScratch, w *wire.PeerCollect) (CollectState, error) {
	sc.objs = objsFromWire(sc.objs, w.Objs)
	return CollectState{
		Round: RoundID{Site: w.From, Seq: w.Round}, Clock: w.Clock,
		Units: slices.Clone(w.Units), Objs: sc.objs,
	}, nil
}

func stateToWire(w *wire.PeerState, m StateReply) {
	w.Clock, w.Values = m.Clock, dbToWire(w.Values, m.Values)
}

// stateFromWire builds the reply the coordinator folds from, which it
// reads long after the call that carried it is back in its pool.
func stateFromWire(w *wire.PeerState) StateReply {
	return StateReply{Clock: w.Clock, Values: dbFromWire(nil, w.Values)}
}

func installStateToWire(w *wire.PeerInstallState, m InstallState) {
	w.From, w.Round, w.Clock = m.Round.Site, m.Round.Seq, m.Clock
	w.Objs = objsToWire(w.Objs, m.Objs)
	w.Folded = dbToWire(w.Folded, m.Folded)
	if m.Winner == nil {
		w.Winner = nil
		return
	}
	if w.Winner == nil {
		w.Winner = new(wire.PeerWinner)
	}
	ww := w.Winner
	ww.Class, ww.Site = m.Winner.Class, m.Winner.Site
	ww.Args = append(ww.Args[:0], m.Winner.Args...)
	ww.Units = append(ww.Units[:0], m.Winner.Units...)
	ww.Log = append(ww.Log[:0], m.Winner.Log...)
}

func installStateFromWire(sc *reqScratch, w *wire.PeerInstallState) (InstallState, error) {
	sc.objs = objsFromWire(sc.objs, w.Objs)
	sc.folded = dbFromWire(sc.folded, w.Folded)
	out := InstallState{
		Round: RoundID{Site: w.From, Seq: w.Round}, Clock: w.Clock,
		Objs: sc.objs, Folded: sc.folded,
	}
	if ww := w.Winner; ww != nil {
		out.Winner = &WinnerCommit{
			Class: ww.Class, Args: slices.Clone(ww.Args), Site: ww.Site,
			Units: slices.Clone(ww.Units), Log: slices.Clone(ww.Log),
		}
	}
	return out, nil
}

func abortToWire(w *wire.PeerAbort, m AbortRound) {
	*w = wire.PeerAbort{From: m.Round.Site, Round: m.Round.Seq, Clock: m.Clock}
}

func abortFromWire(_ *reqScratch, w *wire.PeerAbort) (AbortRound, error) {
	return AbortRound{Round: RoundID{Site: w.From, Seq: w.Round}, Clock: w.Clock}, nil
}

// ackToWire and ackFromWire are both conversions of an ack: acked answers
// in wire form.
func ackToWire(w *wire.PeerAck, a wire.PeerAck) { *w = a }

func ackFromWire(w *wire.PeerAck) wire.PeerAck { return *w }

func rejoinToWire(w *wire.PeerRejoin, m Rejoin) {
	w.Site, w.Clock, w.Units = m.Site, m.Clock, w.Units[:0]
	for unit, v := range m.Versions {
		w.Units = append(w.Units, wire.PeerUnitVersion{Unit: unit, Version: v})
	}
	slices.SortFunc(w.Units, func(a, b wire.PeerUnitVersion) int { return cmp.Compare(a.Unit, b.Unit) })
}

func rejoinFromWire(_ *reqScratch, w *wire.PeerRejoin) (Rejoin, error) {
	out := Rejoin{Site: w.Site, Clock: w.Clock, Versions: make(map[int]int64, len(w.Units))}
	for _, uv := range w.Units {
		out.Versions[uv.Unit] = uv.Version
	}
	return out, nil
}

func rejoinReplyToWire(w *wire.PeerRejoinReply, m RejoinReply) {
	w.Clock, w.Units = m.Clock, w.Units[:0]
	for _, ru := range m.Units {
		w.Units = append(w.Units, wire.PeerRejoinUnit{
			Unit: ru.Unit, Version: ru.Version, Force: ru.Force, Base: dbToWire(nil, ru.Base),
		})
	}
}

func rejoinReplyFromWire(w *wire.PeerRejoinReply) RejoinReply {
	out := RejoinReply{Clock: w.Clock}
	for _, ru := range w.Units {
		out.Units = append(out.Units, RejoinUnit{
			Unit: ru.Unit, Version: ru.Version, Force: ru.Force, Base: dbFromWire(nil, ru.Base),
		})
	}
	return out
}

func joinToWire(w *wire.PeerJoin, m JoinSite) {
	*w = wire.PeerJoin{Site: m.Site, Round: m.Round.Seq, Clock: m.Clock, Addr: m.Addr, Phase: m.Phase}
}

// joinFromWire keys the round by the joining site (it coordinates its own
// admission).
func joinFromWire(_ *reqScratch, w *wire.PeerJoin) (JoinSite, error) {
	return JoinSite{
		Round: RoundID{Site: w.Site, Seq: w.Round}, Clock: w.Clock,
		Site: w.Site, Addr: w.Addr, Phase: w.Phase,
	}, nil
}

func joinReplyToWire(w *wire.PeerJoinReply, m JoinReply) {
	w.Clock, w.Epoch, w.Units = m.Clock, m.Epoch, w.Units[:0]
	for _, u := range m.Units {
		w.Units = append(w.Units, wire.PeerJoinUnit{Unit: u.Unit, Version: u.Version, Base: dbToWire(nil, u.Base)})
	}
}

func joinReplyFromWire(w *wire.PeerJoinReply) JoinReply {
	out := JoinReply{Clock: w.Clock, Epoch: w.Epoch}
	for _, u := range w.Units {
		out.Units = append(out.Units, JoinUnit{Unit: u.Unit, Version: u.Version, Base: dbFromWire(nil, u.Base)})
	}
	return out
}

func drainToWire(w *wire.PeerDrain, m DrainSite) { *w = wire.PeerDrain{Site: m.Site, Clock: m.Clock} }

func drainFromWire(_ *reqScratch, w *wire.PeerDrain) (DrainSite, error) {
	return DrainSite{Site: w.Site, Clock: w.Clock}, nil
}

func drainReplyToWire(w *wire.PeerDrainReply, m DrainReply) {
	*w = wire.PeerDrainReply{Clock: m.Clock, Epoch: m.Epoch}
}

func drainReplyFromWire(w *wire.PeerDrainReply) DrainReply {
	return DrainReply{Clock: w.Clock, Epoch: w.Epoch}
}

func opToWire(op lia.RelOp) string {
	switch op {
	case lia.LE:
		return "<="
	case lia.LT:
		return "<"
	default:
		return "=="
	}
}

func opFromWire(s string) (lia.RelOp, error) {
	switch s {
	case "<=":
		return lia.LE, nil
	case "<":
		return lia.LT, nil
	case "==":
		return lia.EQ, nil
	}
	return 0, fmt.Errorf("fabric: unknown constraint op %q", s)
}

// AppendConstraintsToWire encodes a local treaty's constraint list over
// dst[:0] in the form install-treaties bodies and the WAL's treaty records
// both carry, for a caller that encodes list after list and keeps none: an
// element dst held before is filled in place, its coefficient map emptied
// and used again.
//
//homeo:hotpath
func AppendConstraintsToWire(dst []wire.PeerConstraint, l treaty.Local) []wire.PeerConstraint {
	dst = dst[:0]
	for _, c := range l.Constraints {
		var pc *wire.PeerConstraint
		dst, pc = next(dst)
		pc.Const, pc.Op = c.Const, opToWire(c.Op)
		clear(pc.Coeffs)
		if pc.Coeffs == nil && len(c.Terms) > 0 {
			pc.Coeffs = make(map[string]int64, len(c.Terms))
		}
		for _, t := range c.Terms {
			pc.Coeffs[string(t.Obj)] = t.Coeff
		}
	}
	return dst
}

// ConstraintsFromWire decodes a wire constraint list back into a local
// treaty for the given site (the inverse of AppendConstraintsToWire on a
// canonical treaty): each constraint's terms in ascending object order, a
// zero coefficient dropped. The treaty is the caller's to keep — a site
// installs it, and the compiled form aliases it.
func ConstraintsFromWire(site int, cs []wire.PeerConstraint) (treaty.Local, error) {
	out := treaty.Local{Site: site, Constraints: make([]treaty.Constraint, 0, len(cs))}
	for _, pc := range cs {
		op, err := opFromWire(pc.Op)
		if err != nil {
			return treaty.Local{}, err
		}
		c := treaty.Constraint{Const: pc.Const, Op: op}
		if n := len(pc.Coeffs); n > 0 {
			c.Terms = make([]treaty.Term, 0, n)
		}
		for name, coeff := range pc.Coeffs {
			if coeff != 0 {
				c.Terms = append(c.Terms, treaty.Term{Obj: lang.ObjID(name), Coeff: coeff})
			}
		}
		slices.SortFunc(c.Terms, treaty.TermOrder)
		out.Constraints = append(out.Constraints, c)
	}
	return out, nil
}

func installTreatiesToWire(w *wire.PeerInstallTreaties, m InstallTreaties) {
	w.From, w.Round, w.Clock, w.Site = m.Round.Site, m.Round.Seq, m.Clock, m.Site
	w.Units = w.Units[:0]
	for _, ut := range m.Units {
		var u *wire.PeerUnitTreaty
		w.Units, u = next(w.Units)
		u.Unit, u.Version = ut.Unit, ut.Version
		u.Constraints = AppendConstraintsToWire(u.Constraints, ut.Local)
	}
}

func installTreatiesFromWire(_ *reqScratch, w *wire.PeerInstallTreaties) (InstallTreaties, error) {
	out := InstallTreaties{
		Round: RoundID{Site: w.From, Seq: w.Round}, Clock: w.Clock, Site: w.Site,
	}
	if len(w.Units) > 0 {
		out.Units = make([]UnitTreaty, 0, len(w.Units))
	}
	for _, ut := range w.Units {
		l, err := ConstraintsFromWire(w.Site, ut.Constraints)
		if err != nil {
			return out, fmt.Errorf("unit %d: %w", ut.Unit, err)
		}
		out.Units = append(out.Units, UnitTreaty{Unit: ut.Unit, Version: ut.Version, Local: l})
	}
	return out, nil
}
