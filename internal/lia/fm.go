package lia

import (
	"math/big"

	"repro/internal/logic"
)

// This file implements Fourier–Motzkin elimination over the rationals for
// deciding feasibility of conjunctions of linear constraints. The rational
// relaxation is sound for refutation: if the relaxation is infeasible the
// integer system certainly is. For the treaty fragment we generate
// (single-variable bounds plus sum constraints) the relaxation is also
// complete in practice; the optimizer additionally verifies any model it
// commits to by direct evaluation.
//
// It is the reference procedure: arbitrary-precision rationals behind
// variable-keyed maps cannot overflow, so the integer kernel of dense.go —
// which decides the same relaxation on machine words and is what every
// caller runs — restarts a call here when a product or sum leaves int64,
// and the differential tests hold the kernel to this file's answers.

// ratConstraint is a constraint with rational coefficients:
// sum coeffs*v + c (op) 0, op in {LE, LT, EQ}.
type ratConstraint struct {
	coeffs map[logic.Var]*big.Rat
	c      *big.Rat
	op     RelOp
}

func toRat(c Constraint) ratConstraint {
	rc := ratConstraint{
		coeffs: make(map[logic.Var]*big.Rat, len(c.Term.Coeffs)),
		c:      new(big.Rat).SetInt64(c.Term.Const),
		op:     c.Op,
	}
	for v, coeff := range c.Term.Coeffs {
		rc.coeffs[v] = new(big.Rat).SetInt64(coeff)
	}
	return rc
}

func (rc ratConstraint) clone() ratConstraint {
	out := ratConstraint{
		coeffs: make(map[logic.Var]*big.Rat, len(rc.coeffs)),
		c:      new(big.Rat).Set(rc.c),
		op:     rc.op,
	}
	for v, coeff := range rc.coeffs {
		out.coeffs[v] = new(big.Rat).Set(coeff)
	}
	return out
}

// addScaled adds scale*other into rc.
func (rc *ratConstraint) addScaled(other ratConstraint, scale *big.Rat) {
	for v, coeff := range other.coeffs {
		cur, ok := rc.coeffs[v]
		if !ok {
			cur = new(big.Rat)
			rc.coeffs[v] = cur
		}
		cur.Add(cur, new(big.Rat).Mul(coeff, scale))
		if cur.Sign() == 0 {
			delete(rc.coeffs, v)
		}
	}
	rc.c.Add(rc.c, new(big.Rat).Mul(other.c, scale))
}

// trivialStatus checks a variable-free constraint: returns (feasible,
// isTrivial).
func (rc ratConstraint) trivialStatus() (bool, bool) {
	if len(rc.coeffs) != 0 {
		return false, false
	}
	switch rc.op {
	case LE:
		return rc.c.Sign() <= 0, true
	case LT:
		return rc.c.Sign() < 0, true
	case EQ:
		return rc.c.Sign() == 0, true
	}
	return false, true
}

// FeasibleRat is Feasible on the reference procedure: it reports whether
// the conjunction of constraints has a rational solution, using
// Fourier–Motzkin elimination over big.Rat. An empty system is feasible.
func FeasibleRat(cs []Constraint) bool {
	system := make([]ratConstraint, 0, len(cs))
	vars := make(map[logic.Var]bool)
	for _, c := range cs {
		rc := toRat(c)
		for v := range rc.coeffs {
			vars[v] = true
		}
		system = append(system, rc)
	}
	order := logic.SortedVars(vars)
	for _, v := range order {
		next, ok := eliminate(system, v)
		if !ok {
			return false
		}
		system = next
	}
	for _, rc := range system {
		if ok, trivial := rc.trivialStatus(); trivial && !ok {
			return false
		}
	}
	return true
}

// eliminate removes variable v from the system. Equalities involving v are
// used as substitutions; otherwise the standard FM combination of upper
// and lower bounds applies. Returns ok=false if an immediate
// contradiction among variable-free constraints is found.
func eliminate(system []ratConstraint, v logic.Var) ([]ratConstraint, bool) {
	// First, try to find an equality mentioning v to use as a pivot.
	for i, rc := range system {
		if rc.op != EQ {
			continue
		}
		coeff, ok := rc.coeffs[v]
		if !ok {
			continue
		}
		// v = -(rest + c)/coeff; substitute into every other constraint.
		var out []ratConstraint
		for j, other := range system {
			if j == i {
				continue
			}
			oc, ok := other.coeffs[v]
			if !ok {
				out = append(out, other)
				continue
			}
			repl := other.clone()
			delete(repl.coeffs, v)
			// repl += (-oc/coeff) * (rc without making v explicit)
			scale := new(big.Rat).Quo(new(big.Rat).Neg(oc), coeff)
			pivot := rc.clone()
			delete(pivot.coeffs, v)
			repl.addScaled(pivot, scale)
			if feas, trivial := repl.trivialStatus(); trivial {
				if !feas {
					return nil, false
				}
				continue
			}
			out = append(out, repl)
		}
		return out, true
	}

	// No equality pivot: classify into lower bounds, upper bounds, and
	// constraints not involving v.
	var lowers, uppers, rest []ratConstraint
	strict := func(rc ratConstraint) bool { return rc.op == LT }
	for _, rc := range system {
		coeff, ok := rc.coeffs[v]
		if !ok {
			rest = append(rest, rc)
			continue
		}
		// Normalize so the constraint reads v <= bound (coeff>0) or
		// v >= bound (coeff<0). Keep raw form; combination below handles
		// scaling.
		if coeff.Sign() > 0 {
			uppers = append(uppers, rc)
		} else {
			lowers = append(lowers, rc)
		}
	}
	// Combine each lower with each upper, eliminating v.
	for _, lo := range lowers {
		for _, up := range uppers {
			lc := lo.coeffs[v] // negative
			uc := up.coeffs[v] // positive
			// combined = up*(-lc) + lo*uc, whose v coefficient is
			// uc*(-lc) + lc*uc = 0.
			combined := ratConstraint{
				coeffs: make(map[logic.Var]*big.Rat),
				c:      new(big.Rat),
				op:     LE,
			}
			if strict(lo) || strict(up) {
				combined.op = LT
			}
			negLc := new(big.Rat).Neg(lc)
			combined.addScaled(up, negLc)
			combined.addScaled(lo, uc)
			delete(combined.coeffs, v)
			if feas, trivial := combined.trivialStatus(); trivial {
				if !feas {
					return nil, false
				}
				continue
			}
			rest = append(rest, combined)
		}
	}
	return rest, true
}

// SubstVar replaces variable v with the given term throughout the
// constraints (used when fixing a variable's value: pass a constant term).
func SubstVar(cs []Constraint, v logic.Var, t Term) []Constraint {
	out := make([]Constraint, 0, len(cs))
	for _, c := range cs {
		coeff, ok := c.Term.Coeffs[v]
		if !ok {
			out = append(out, c.Clone())
			continue
		}
		nc := c.Clone()
		delete(nc.Term.Coeffs, v)
		nc.Term.AddTerm(t, coeff)
		out = append(out, nc)
	}
	return out
}

// Bounds computes the implied lower and upper bounds on variable v from a
// conjunction of constraints that mention only v (single-variable
// constraints). Constraints mentioning other variables are ignored.
// Returned bounds are inclusive; hasLo/hasUp report existence.
func Bounds(cs []Constraint, v logic.Var) (lo int64, hasLo bool, up int64, hasUp bool) {
	for _, c := range cs {
		coeff, ok := c.Term.Coeffs[v]
		if !ok || len(c.Term.Coeffs) != 1 {
			continue
		}
		// coeff*v + const (op) 0
		switch c.Op {
		case LE, LT:
			bound := -c.Term.Const
			if c.Op == LT {
				bound--
			}
			// coeff*v <= bound
			if coeff > 0 {
				b := floorDiv(bound, coeff)
				if !hasUp || b < up {
					up, hasUp = b, true
				}
			} else {
				b := ceilDiv(bound, coeff)
				if !hasLo || b > lo {
					lo, hasLo = b, true
				}
			}
		case EQ:
			if (-c.Term.Const)%coeff == 0 {
				b := -c.Term.Const / coeff
				if !hasLo || b > lo {
					lo, hasLo = b, true
				}
				if !hasUp || b < up {
					up, hasUp = b, true
				}
			} else {
				// No integer solution: contradictory bounds.
				lo, hasLo = 1, true
				up, hasUp = 0, true
			}
		}
	}
	return
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
