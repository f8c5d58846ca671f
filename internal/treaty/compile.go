package treaty

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
)

// This file implements the compiled treaty-evaluation path. The local
// treaty is checked before every commit — it is the hot path of the
// homeostasis protocol — while treaties themselves only change at
// negotiation rounds. Instead of re-walking the lia.Constraint tree and
// resolving variables through a Binding closure on every check, a local
// treaty is compiled once per round into a form the runtime evaluates
// with pre-resolved ObjIDs, no per-eval allocation, and no error path
// (malformed constraints are rejected at compile time).

// ObjReader is the read-only state a compiled treaty evaluates against.
// Both lang.Database and the store's *Store satisfy it; absent objects
// read as zero.
type ObjReader interface {
	Get(obj lang.ObjID) int64
}

// term is one summand of a compiled constraint.
type term struct {
	obj   lang.ObjID
	coeff int64
}

// compiledConstraint is one constraint flattened into its summands, in
// ascending object order: sum_i terms[i].coeff * terms[i].obj + konst op 0.
type compiledConstraint struct {
	terms []term
	konst int64
	op    lia.RelOp
}

func (c *compiledConstraint) holds(db ObjReader) bool {
	sum := c.konst
	for _, t := range c.terms {
		sum += t.coeff * db.Get(t.obj)
	}
	switch c.op {
	case lia.LE:
		return sum <= 0
	case lia.LT:
		return sum < 0
	default: // lia.EQ
		return sum == 0
	}
}

// CompiledLocal is one site's local treaty compiled for the per-commit
// check. The zero value is not meaningful; build with Compile.
type CompiledLocal struct {
	site int

	// alwaysFalse short-circuits treaties containing an unsatisfiable
	// ground constraint (or an empty interval).
	alwaysFalse bool

	// Demarcation fast path: every constraint bounds the same linear sum
	// s = sum_i terms[i].coeff*terms[i].obj (up to sign), so the whole
	// treaty is lo <= s <= hi — one pass over the objects, two
	// comparisons. This is the common shape: local treaties instantiated
	// from single-clause global treaties like the microbenchmark's stock
	// bound.
	interval bool
	terms    []term
	lo, hi   int64

	// general holds the remaining constraints when the sweep above does
	// not apply.
	general []compiledConstraint
}

// Site returns the site the treaty was compiled for.
func (c *CompiledLocal) Site() int { return c.site }

// Compile specializes a local treaty for repeated evaluation. It fails if
// a constraint mentions a non-object variable (a configuration variable
// left uninstantiated, for example), so that a malformed treaty surfaces
// as an error at generation time rather than masquerading as a violation
// on the commit path.
//
// A round compiles every site's treaty of every unit it renegotiates, so
// the summands of all constraints share one allocation, sorted in place
// constraint by constraint; a demarcation-shaped treaty (the common case)
// allocates nothing else.
//
//homeo:hotpath
func Compile(l Local) (CompiledLocal, error) {
	out := CompiledLocal{site: l.Site}
	total := 0
	for i := range l.Constraints {
		total += len(l.Constraints[i].Term.Coeffs)
	}
	arena := make([]term, 0, total)
	var consBuf [4]compiledConstraint
	cons := consBuf[:0]
	for i := range l.Constraints {
		c := &l.Constraints[i]
		start := len(arena)
		//homeo:nondet summands are sorted by object below; order invisible
		for v, coeff := range c.Term.Coeffs {
			if v.Kind != logic.ObjVar {
				return CompiledLocal{}, errNonObject(l.Site, *c)
			}
			arena = append(arena, term{lang.ObjID(v.Name), coeff})
		}
		cc := compiledConstraint{terms: arena[start:len(arena):len(arena)], konst: c.Term.Const, op: c.Op}
		if len(cc.terms) == 0 {
			// Ground constraint: fold it now. Keep scanning so a
			// malformed constraint later in the list is still rejected.
			if !cc.holds(lang.Database(nil)) {
				out.alwaysFalse = true
			}
			continue
		}
		slices.SortFunc(cc.terms, compareTerms)
		cons = append(cons, cc)
	}
	if out.alwaysFalse {
		return out, nil
	}
	out.compileInterval(cons)
	return out, nil
}

func compareTerms(a, b term) int { return strings.Compare(string(a.obj), string(b.obj)) }

// errNonObject reports the constraint's first non-object variable (in
// canonical order, so the message does not depend on map order).
func errNonObject(site int, c lia.Constraint) error {
	for _, v := range c.Term.Vars() {
		if v.Kind != logic.ObjVar {
			return fmt.Errorf(
				"treaty: compile: site %d local treaty mentions non-object variable %s in %s",
				site, v, c)
		}
	}
	return nil
}

// compileInterval detects the demarcation shape: every constraint bounds
// the same linear sum (up to sign). On success it fills the interval
// fields; otherwise it stores the constraints for the general path.
func (c *CompiledLocal) compileInterval(cons []compiledConstraint) {
	if len(cons) == 0 {
		// Vacuously true treaty.
		return
	}
	spec := cons[0]
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for i := range cons {
		sign, ok := sumSign(&spec, &cons[i])
		if !ok {
			// cons is the caller's stack buffer.
			c.general = slices.Clone(cons)
			return
		}
		// The constraint is sign*s + konst op 0 for s = spec's sum. The
		// negations and ±1 adjustments saturate instead of wrapping: a
		// bound beyond the int64 range is either vacuous (no int64 sum
		// can violate it) or unsatisfiable (no int64 sum can meet it),
		// never a silently erased constraint.
		k := cons[i].konst
		switch cons[i].op {
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
	c.interval = true
	c.terms = spec.terms
	c.lo, c.hi = lo, hi
	if lo > hi {
		c.alwaysFalse = true
	}
}

// sumSign reports whether b's linear part equals spec's (+1) or its
// negation (-1). Both are sorted by object, so the order is canonical.
func sumSign(spec, b *compiledConstraint) (int64, bool) {
	if len(spec.terms) != len(b.terms) {
		return 0, false
	}
	var sign int64
	for i := range spec.terms {
		if spec.terms[i].obj != b.terms[i].obj {
			return 0, false
		}
		switch b.terms[i].coeff {
		case spec.terms[i].coeff:
			if sign == -1 {
				return 0, false
			}
			sign = 1
		case -spec.terms[i].coeff:
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
// given state. It cannot fail: non-object variables were rejected at
// compile time and missing objects read as zero.
func (c *CompiledLocal) Holds(db ObjReader) bool {
	if c.alwaysFalse {
		return false
	}
	if c.interval {
		s := int64(0)
		for _, t := range c.terms {
			s += t.coeff * db.Get(t.obj)
		}
		return c.lo <= s && s <= c.hi
	}
	for i := range c.general {
		if !c.general[i].holds(db) {
			return false
		}
	}
	return true
}

// CompileLocals compiles every site's local treaty.
func CompileLocals(locals []Local) ([]CompiledLocal, error) {
	out := make([]CompiledLocal, len(locals))
	for i, l := range locals {
		c, err := Compile(l)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
