package lia

import (
	"math"
	"math/big"

	"repro/internal/logic"
)

// SolveModelRat is SolveModel on the reference procedure (see fm.go). It
// searches for an integer model of a conjunction of linear constraints
// using Fourier-Motzkin elimination over big.Rat with back-substitution:
// variables are eliminated one at a time (recording the intermediate
// systems), then assigned in reverse order from the rational bounds the
// remaining constraints imply, rounding into the integer interval.
//
// The procedure is complete for the bound-plus-sum constraint systems the
// treaty optimizer generates. For general systems integrality gaps can make
// it miss models; it never returns an incorrect one (the result is
// verified by evaluation before returning).
func SolveModelRat(cs []Constraint) (map[logic.Var]int64, bool) {
	vars := make(map[logic.Var]bool)
	system := make([]ratConstraint, 0, len(cs))
	for _, c := range cs {
		rc := toRat(c)
		for v := range rc.coeffs {
			vars[v] = true
		}
		system = append(system, rc)
	}
	order := logic.SortedVars(vars)

	// Forward elimination, remembering the system at each stage.
	stages := make([][]ratConstraint, 0, len(order))
	cur := system
	for _, v := range order {
		stages = append(stages, cur)
		next, ok := eliminate(cur, v)
		if !ok {
			return nil, false
		}
		cur = next
	}
	for _, rc := range cur {
		if ok, trivial := rc.trivialStatus(); trivial && !ok {
			return nil, false
		}
	}

	// Back-substitution.
	model := make(map[logic.Var]int64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		val, ok := boundsFor(stages[i], v, model)
		if !ok {
			return nil, false
		}
		model[v] = val
	}

	// Verify the model satisfies the original constraints, over ℤ: a
	// model whose sums leave int64 is still a model.
	if !holdsExactly(cs, model) {
		return nil, false
	}
	return model, true
}

// holdsExactly evaluates a conjunction at a point in arbitrary precision.
func holdsExactly(cs []Constraint, point map[logic.Var]int64) bool {
	for _, c := range cs {
		sum := big.NewInt(c.Term.Const)
		for v, coeff := range c.Term.Coeffs {
			sum.Add(sum, new(big.Int).Mul(big.NewInt(coeff), big.NewInt(point[v])))
		}
		if s := sum.Sign(); s > 0 || (s == 0 && c.Op == LT) || (s < 0 && c.Op == EQ) {
			return false
		}
	}
	return true
}

// boundsFor computes the tightest rational bounds on v implied by the
// system once already-assigned variables are substituted, and picks an
// integer value inside them.
func boundsFor(system []ratConstraint, v logic.Var, assigned map[logic.Var]int64) (int64, bool) {
	var lo, hi *big.Rat
	loStrict, hiStrict := false, false
	for _, rc := range system {
		coeff, ok := rc.coeffs[v]
		if !ok {
			continue
		}
		// Substitute assigned variables into the rest of the constraint.
		rest := new(big.Rat).Set(rc.c)
		feasibleSub := true
		for ov, oc := range rc.coeffs {
			if ov == v {
				continue
			}
			val, ok := assigned[ov]
			if !ok {
				// Variable eliminated later than v should not appear in
				// this stage; bail out conservatively.
				feasibleSub = false
				break
			}
			rest.Add(rest, new(big.Rat).Mul(oc, new(big.Rat).SetInt64(val)))
		}
		if !feasibleSub {
			continue
		}
		// coeff*v + rest (op) 0  =>  v (op') -rest/coeff
		bound := new(big.Rat).Quo(new(big.Rat).Neg(rest), coeff)
		switch rc.op {
		case EQ:
			if (lo != nil && bound.Cmp(lo) < 0) || (hi != nil && bound.Cmp(hi) > 0) {
				return 0, false
			}
			lo, hi = bound, bound
			loStrict, hiStrict = false, false
		case LE, LT:
			strict := rc.op == LT
			if coeff.Sign() > 0 {
				// v <= bound
				if hi == nil || bound.Cmp(hi) < 0 || (bound.Cmp(hi) == 0 && strict) {
					hi, hiStrict = bound, strict
				}
			} else {
				// v >= bound
				if lo == nil || bound.Cmp(lo) > 0 || (bound.Cmp(lo) == 0 && strict) {
					lo, loStrict = bound, strict
				}
			}
		}
	}
	// Choose an integer in the interval. Prefer the upper bound (treaty
	// configurations want the largest allowed value; any in-range value is
	// valid for correctness).
	switch {
	case hi != nil:
		val := ratFloor(hi)
		if hiStrict && new(big.Rat).SetInt64(val).Cmp(hi) == 0 {
			val--
		}
		if lo != nil {
			loVal := ratCeil(lo)
			if loStrict && new(big.Rat).SetInt64(loVal).Cmp(lo) == 0 {
				loVal++
			}
			if val < loVal {
				return 0, false
			}
		}
		return val, true
	case lo != nil:
		val := ratCeil(lo)
		if loStrict && new(big.Rat).SetInt64(val).Cmp(lo) == 0 {
			val++
		}
		return val, true
	default:
		return 0, true
	}
}

func ratFloor(r *big.Rat) int64 {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	// big.Int Quo truncates toward zero; adjust for negatives.
	if r.Sign() < 0 && new(big.Int).Mul(q, r.Denom()).Cmp(r.Num()) != 0 {
		q.Sub(q, big.NewInt(1))
	}
	return clamp64(q)
}

func ratCeil(r *big.Rat) int64 {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() > 0 && new(big.Int).Mul(q, r.Denom()).Cmp(r.Num()) != 0 {
		q.Add(q, big.NewInt(1))
	}
	return clamp64(q)
}

// clamp64 is x, or the int64 nearest it: a bound past the range does not
// wrap into it. A value clamped so is checked like any other.
func clamp64(x *big.Int) int64 {
	switch {
	case x.IsInt64():
		return x.Int64()
	case x.Sign() < 0:
		return math.MinInt64
	}
	return math.MaxInt64
}
