package lang

// This file holds what the symbolic-table analysis does to L's boolean
// expressions when it uses them as guards (Section 2.2, Figure 6): it
// conjoins and negates them, substitutes an expression for a temporary or
// an object (ϕ{e/x}), folds their ground parts, and visits their
// conjuncts. A guard is an ordinary BoolExpr, so EvalBool evaluates it,
// checked as every L evaluation is.

// Conj is l && r as a guard builds it: a true side drops, a false side
// absorbs, and otherwise the conjuncts keep their order. A false right side
// absorbs only a left side whose evaluation cannot fail (guardJunction).
func Conj(l, r BoolExpr) BoolExpr {
	if b, ok := guardJunction(l, r, false); ok {
		return b
	}
	return And{L: l, R: r}
}

// guardJunction is junction, except that an absorbing right side does not
// absorb a left side whose evaluation may fail: L evaluates the left side
// first, so "e && false" aborts wherever e overflows, and a guard that
// dropped e would match a row there instead.
func guardJunction(l, r BoolExpr, absorbing bool) (BoolExpr, bool) {
	if lit, ok := r.(BoolLit); ok && lit.Value == absorbing && mayFail(l) {
		return nil, false
	}
	return junction(l, r, absorbing)
}

// mayFail reports whether evaluating b may fail: whether it does
// arithmetic, which can leave int64, or reads a temporary, which can be
// unbound.
func mayFail(b BoolExpr) bool {
	switch n := b.(type) {
	case Cmp:
		return exprMayFail(n.L) || exprMayFail(n.R)
	case And:
		return mayFail(n.L) || mayFail(n.R)
	case Or:
		return mayFail(n.L) || mayFail(n.R)
	case Not:
		return mayFail(n.B)
	}
	return false
}

func exprMayFail(e Expr) bool {
	switch e.(type) {
	case IntLit, Read, Param:
		return false
	}
	return true
}

// Negate is !b pushed into what it goes through: a literal flips, a
// comparison flips its operator, and a double negation cancels.
func Negate(b BoolExpr) BoolExpr {
	switch n := b.(type) {
	case BoolLit:
		return BoolLit{Value: !n.Value}
	case Cmp:
		return Cmp{Op: n.Op.Negate(), L: n.L, R: n.R}
	case Not:
		return n.B
	}
	return Not{B: b}
}

// Conjuncts calls f on each conjunct of b in order, looking through its
// conjunctions; a true conjunct is none.
func Conjuncts(b BoolExpr, f func(BoolExpr)) {
	switch n := b.(type) {
	case And:
		Conjuncts(n.L, f)
		Conjuncts(n.R, f)
	case BoolLit:
		if !n.Value {
			f(n)
		}
	default:
		f(b)
	}
}

// SubstBool is b{e/x}: b with every occurrence of x, a TempVar or a Read,
// replaced by e. What does not mention x is shared with b.
func SubstBool(b BoolExpr, x, e Expr) BoolExpr {
	out, _ := (&subst{x: x, e: e}).boolExpr(b)
	return out
}

// subst is the pass behind SubstBool. Nodes are comparable values, so ==
// finds x.
type subst struct{ x, e Expr }

func (s *subst) expr(n Expr) (Expr, bool) {
	if n == s.x {
		return s.e, true
	}
	return mapExpr(s, n)
}

func (s *subst) boolExpr(b BoolExpr) (BoolExpr, bool) { return mapBool(s, b) }

func (s *subst) cmd(c Cmd) (Cmd, bool) { return mapCmd(s, c) }

// FoldBool folds b's ground parts: arithmetic on literals becomes its
// value, a comparison of literals becomes true or false, and conjunctions
// and negations collapse as Conj and Negate build them (a disjunction as a
// conjunction does, with true absorbing).
// The arithmetic is EvalExpr's, so a step that leaves int64 is not folded:
// it stays in the guard, which fails evaluation there as the source does.
func FoldBool(b BoolExpr) BoolExpr {
	out, _ := folder{}.boolExpr(b)
	return out
}

// folder is the pass behind FoldBool. It has no state, so it is a value.
type folder struct{}

func (f folder) expr(e Expr) (Expr, bool) {
	out, changed := mapExpr(f, e)
	ground := false
	switch n := out.(type) {
	case Neg:
		_, ground = n.E.(IntLit)
	case Bin:
		_, l := n.L.(IntLit)
		_, r := n.R.(IntLit)
		ground = l && r
	}
	if ground {
		if v, err := EvalExpr(out, nil); err == nil {
			return IntLit{Value: v}, true
		}
	}
	return out, changed
}

func (f folder) boolExpr(b BoolExpr) (BoolExpr, bool) {
	out, changed := mapBool(f, b)
	switch n := out.(type) {
	case Cmp:
		if l, ok := n.L.(IntLit); ok {
			if r, ok := n.R.(IntLit); ok {
				return BoolLit{Value: n.Op.Holds(l.Value, r.Value)}, true
			}
		}
	case And:
		if folded, ok := guardJunction(n.L, n.R, false); ok {
			return folded, true
		}
	case Or:
		if folded, ok := guardJunction(n.L, n.R, true); ok {
			return folded, true
		}
	case Not:
		switch n.B.(type) {
		case BoolLit, Cmp, Not:
			return Negate(n.B), true
		}
	}
	return out, changed
}

func (f folder) cmd(c Cmd) (Cmd, bool) { return mapCmd(f, c) }
