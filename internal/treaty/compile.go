package treaty

import (
	"fmt"
	"math"

	"repro/internal/lang"
	"repro/internal/lia"
)

// This file implements the compiled treaty-evaluation path. The local
// treaty is checked before every commit — it is the hot path of the
// homeostasis protocol — while treaties themselves only change at
// negotiation rounds. A local treaty is compiled once per install: held to
// the canonical form, its ground constraints folded and the demarcation
// interval detected, so the check itself has no per-eval allocation and no
// error path. Compiling copies nothing — the compiled treaty reads the
// Local's own term slices.

// ObjReader is the read-only state a compiled treaty evaluates against.
// Both lang.Database and the store's *Store satisfy it; absent objects
// read as zero.
type ObjReader interface {
	Get(obj lang.ObjID) int64
}

// CompiledLocal is one site's local treaty compiled for the per-commit
// check. The zero value is not meaningful; build with Compile.
type CompiledLocal struct {
	// local is the treaty compiled, aliased: the general path evaluates its
	// constraints as they are.
	local Local

	// alwaysFalse short-circuits treaties containing an unsatisfiable
	// ground constraint (or an empty interval).
	alwaysFalse bool

	// Demarcation fast path: every non-ground constraint bounds the same
	// linear sum s = sum_i sum[i].Coeff*sum[i].Obj (up to sign), so the
	// whole treaty is lo <= s <= hi — one pass over the objects, two
	// comparisons. This is the common shape: local treaties instantiated
	// from single-clause global treaties like the microbenchmark's stock
	// bound.
	interval bool
	sum      []Term
	lo, hi   int64
}

// Local returns the treaty c was compiled from.
func (c *CompiledLocal) Local() Local { return c.local }

// Compile specializes a local treaty for repeated evaluation. It is the one
// place a Local is held to the canonical form (see Constraint) — a treaty
// built by hand, sent by a peer or read from a log that is out of order,
// repeats an object or carries a zero coefficient surfaces as an error here
// rather than masquerading as a violation on the commit path. The compiled
// treaty aliases l, which must not change afterwards.
//
//homeo:hotpath
func Compile(l Local) (CompiledLocal, error) {
	out := CompiledLocal{local: l}
	for i := range l.Constraints {
		c := &l.Constraints[i]
		for j, t := range c.Terms {
			if t.Coeff == 0 || j > 0 && TermOrder(c.Terms[j-1], t) >= 0 {
				return CompiledLocal{}, errNotCanonical(l.Site, c)
			}
		}
		// Ground constraint: fold it now. Keep scanning so a malformed
		// constraint later in the list is still rejected.
		if len(c.Terms) == 0 && !c.holds(lang.Database(nil)) {
			out.alwaysFalse = true
		}
	}
	if !out.alwaysFalse {
		out.compileInterval()
	}
	return out, nil
}

func errNotCanonical(site int, c *Constraint) error {
	return fmt.Errorf("treaty: compile: site %d local treaty constraint %s is not canonical "+
		"(objects ascending, none repeated, no zero coefficient)", site, c.AppendTo(nil))
}

// compileInterval detects the demarcation shape: every non-ground
// constraint bounds the same linear sum (up to sign). On success it fills
// the interval fields; otherwise Holds walks the constraints.
func (c *CompiledLocal) compileInterval() {
	var spec []Term
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for i := range c.local.Constraints {
		con := &c.local.Constraints[i]
		if len(con.Terms) == 0 {
			continue // ground and true: Compile folded it
		}
		if spec == nil {
			spec = con.Terms
		}
		sign, ok := sumSign(spec, con.Terms)
		if !ok {
			return
		}
		// The constraint is sign*s + k op 0 for s = spec's sum. The
		// negations and ±1 adjustments saturate instead of wrapping: a
		// bound beyond the int64 range is either vacuous (no int64 sum
		// can violate it) or unsatisfiable (no int64 sum can meet it),
		// never a silently erased constraint.
		k := con.Const
		switch con.Op {
		case lia.LE:
			if sign > 0 { // s <= -k
				if k == math.MinInt64 {
					break // s <= 2^63: vacuous over int64
				}
				hi = min(hi, -k)
			} else { // s >= k
				lo = max(lo, k)
			}
		case lia.LT:
			if sign > 0 { // s < -k, integer s
				if k == math.MinInt64 {
					break // s < 2^63: vacuous over int64
				}
				hi = min(hi, -k-1)
			} else { // s > k
				if k == math.MaxInt64 {
					c.alwaysFalse = true // s > 2^63-1: unsatisfiable
					return
				}
				lo = max(lo, k+1)
			}
		case lia.EQ:
			if k == math.MinInt64 && sign > 0 {
				c.alwaysFalse = true // s = 2^63: unsatisfiable over int64
				return
			}
			v := -sign * k
			lo = max(lo, v)
			hi = min(hi, v)
		}
	}
	if spec == nil {
		// Vacuously true treaty.
		return
	}
	c.interval = true
	c.sum = spec
	c.lo, c.hi = lo, hi
	if lo > hi {
		c.alwaysFalse = true
	}
}

// sumSign reports whether b equals spec (+1) or its negation (-1). Both
// are canonical, so equal sums list the same objects in the same order.
func sumSign(spec, b []Term) (int64, bool) {
	if len(spec) != len(b) {
		return 0, false
	}
	var sign int64
	for i := range spec {
		if spec[i].Obj != b[i].Obj {
			return 0, false
		}
		switch b[i].Coeff {
		case spec[i].Coeff:
			if sign == -1 {
				return 0, false
			}
			sign = 1
		case -spec[i].Coeff:
			if sign == 1 {
				return 0, false
			}
			sign = -1
		default:
			return 0, false
		}
	}
	return sign, true
}

// Holds reports whether the compiled local treaty is satisfied by the
// given state. It cannot fail: a Local mentions nothing but objects, and
// missing objects read as zero. A sum that leaves int64 counts as
// violated, so the check never accepts a state the treaty over ℤ refuses:
// the worst an overflow costs is a synchronization round.
//
//homeo:hotpath
func (c *CompiledLocal) Holds(db ObjReader) bool {
	if c.alwaysFalse {
		return false
	}
	if c.interval {
		s, ok := termSum(0, c.sum, db)
		return ok && c.lo <= s && s <= c.hi
	}
	for i := range c.local.Constraints {
		if !c.local.Constraints[i].holds(db) {
			return false
		}
	}
	return true
}

// termSum is start + Σ t.Coeff·db[t.Obj] and whether every product and
// partial sum fit in int64.
//
//homeo:hotpath
func termSum(start int64, terms []Term, db ObjReader) (int64, bool) {
	s := start
	for _, t := range terms {
		p, ok := lia.Mul64(t.Coeff, db.Get(t.Obj))
		if !ok {
			return 0, false
		}
		if s, ok = lia.Add64(s, p); !ok {
			return 0, false
		}
	}
	return s, true
}
