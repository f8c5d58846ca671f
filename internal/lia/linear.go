// Package lia is a linear integer arithmetic toolkit: canonical linear
// terms and constraints, linearization of L's expressions and guards, and a
// Fourier–Motzkin feasibility procedure. It underpins symbolic-table
// pruning and treaty generation (Section 4.2, Appendix C of the
// Homeostasis paper).
package lia

import (
	"fmt"
	"math/big"
	"strconv"

	"repro/internal/lang"
	"repro/internal/logic"
)

// Term is a linear combination of variables plus a constant:
// sum_i Coeffs[v_i] * v_i + Const.
type Term struct {
	Coeffs map[logic.Var]int64
	Const  int64
}

// NewTerm returns an empty (zero) term.
func NewTerm() Term {
	return Term{Coeffs: make(map[logic.Var]int64)}
}

// Clone deep-copies the term.
func (t Term) Clone() Term {
	out := Term{Coeffs: make(map[logic.Var]int64, len(t.Coeffs)), Const: t.Const}
	for v, c := range t.Coeffs {
		out.Coeffs[v] = c
	}
	return out
}

// AddVar adds coeff * v to the term.
func (t *Term) AddVar(v logic.Var, coeff int64) {
	if t.Coeffs == nil {
		t.Coeffs = make(map[logic.Var]int64)
	}
	c := t.Coeffs[v] + coeff
	if c == 0 {
		delete(t.Coeffs, v)
	} else {
		t.Coeffs[v] = c
	}
}

// AddTerm adds scale * other to the term and reports whether every
// product and sum stayed in int64; the term is unusable when it did not.
func (t *Term) AddTerm(other Term, scale int64) bool {
	for v, c := range other.Coeffs {
		p, ok := lang.Mul64(c, scale)
		if ok {
			_, ok = lang.Add64(t.Coeffs[v], p)
		}
		if !ok {
			return false
		}
		t.AddVar(v, p)
	}
	p, ok := lang.Mul64(other.Const, scale)
	if ok {
		t.Const, ok = lang.Add64(t.Const, p)
	}
	return ok
}

// IsConst reports whether the term has no variables.
func (t Term) IsConst() bool { return len(t.Coeffs) == 0 }

// Vars returns the term's variables in deterministic order.
func (t Term) Vars() []logic.Var {
	out := make([]logic.Var, 0, len(t.Coeffs))
	for v := range t.Coeffs {
		out = append(out, v)
	}
	logic.SortVars(out)
	return out
}

// Eval evaluates the term under a binding. It is exact: a value that
// leaves int64 is ErrRange, never a wrapped number.
func (t Term) Eval(b logic.Binding) (int64, error) {
	sum, exact := t.Const, true
	for v, c := range t.Coeffs {
		val, ok := b(v)
		if !ok {
			return 0, fmt.Errorf("lia: unbound variable %s", v)
		}
		p, pok := lang.Mul64(c, val)
		s, sok := lang.Add64(sum, p)
		sum, exact = s, exact && pok && sok
	}
	if exact {
		return sum, nil
	}
	// A product or partial sum left int64; the value may still be in it.
	exactSum := big.NewInt(t.Const)
	var p, x big.Int
	for v, c := range t.Coeffs {
		val, _ := b(v)
		exactSum.Add(exactSum, p.Mul(p.SetInt64(c), x.SetInt64(val)))
	}
	if !exactSum.IsInt64() {
		return 0, ErrRange
	}
	return exactSum.Int64(), nil
}

func (t Term) String() string { return string(t.AppendTo(nil)) }

// AppendTo appends the term as its summands joined by " + ": coeff*var
// with unit coefficients elided, then the constant unless it is zero and
// something precedes it. The variables are put in order in a buffer on the
// stack, so rendering a term of a few variables allocates nothing.
func (t Term) AppendTo(b []byte) []byte {
	start := len(b)
	var buf [8]logic.Var
	vars := buf[:0]
	for v := range t.Coeffs {
		vars = append(vars, v)
	}
	logic.SortVars(vars)
	for _, v := range vars {
		b = AppendSummand(b, start, t.Coeffs[v], v.String())
	}
	return AppendConst(b, start, t.Const)
}

// AppendSummand appends coeff*name to a term's rendering that began at
// b[start:], the way Term.AppendTo writes a summand: " + " between
// summands, a unit coefficient elided.
func AppendSummand(b []byte, start int, coeff int64, name string) []byte {
	if len(b) > start {
		b = append(b, " + "...)
	}
	switch coeff {
	case 1:
	case -1:
		b = append(b, '-')
	default:
		b = append(strconv.AppendInt(b, coeff, 10), '*')
	}
	return append(b, name...)
}

// AppendConst closes a term's rendering that began at b[start:] with its
// constant, unless that is zero and a summand precedes it.
func AppendConst(b []byte, start int, c int64) []byte {
	if c != 0 || len(b) == start {
		if len(b) > start {
			b = append(b, " + "...)
		}
		b = strconv.AppendInt(b, c, 10)
	}
	return b
}

// RelOp is the relation of a canonical constraint.
type RelOp int

const (
	// LE is Term <= 0.
	LE RelOp = iota
	// LT is Term < 0.
	LT
	// EQ is Term = 0.
	EQ
)

func (op RelOp) String() string {
	switch op {
	case LE:
		return "<="
	case LT:
		return "<"
	case EQ:
		return "="
	}
	return "?"
}

// Constraint is a canonical linear constraint: Term op 0.
type Constraint struct {
	Term Term
	Op   RelOp
}

func (c Constraint) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends the constraint as "term op 0".
func (c Constraint) AppendTo(b []byte) []byte {
	b = append(c.Term.AppendTo(b), ' ')
	return append(append(b, c.Op.String()...), " 0"...)
}

// Eval reports whether the constraint holds under a binding.
func (c Constraint) Eval(b logic.Binding) (bool, error) {
	v, err := c.Term.Eval(b)
	if err != nil {
		return false, err
	}
	switch c.Op {
	case LE:
		return v <= 0, nil
	case LT:
		return v < 0, nil
	case EQ:
		return v == 0, nil
	}
	return false, fmt.Errorf("lia: unknown relation %v", c.Op)
}

// Clone deep-copies the constraint.
func (c Constraint) Clone() Constraint {
	return Constraint{Term: c.Term.Clone(), Op: c.Op}
}

// ErrNonLinear is returned when an expression cannot be put into linear
// form (for example a product of two variables).
var ErrNonLinear = fmt.Errorf("lia: non-linear expression")

// ErrRange is returned when a coefficient or the constant of a linear form,
// or the value of a term, leaves int64.
var ErrRange = fmt.Errorf("lia: value leaves int64")

// Linearize converts an L expression into a linear term: read(x) is the
// variable logic.Obj(x), a parameter logic.Param, a temporary logic.Temp.
// It returns ErrNonLinear when the expression multiplies two non-constant
// subterms and ErrRange when a coefficient or the constant leaves int64.
// An array read is refused; lower L++ to L first.
func Linearize(e lang.Expr) (Term, error) {
	switch e := e.(type) {
	case lang.IntLit:
		t := NewTerm()
		t.Const = e.Value
		return t, nil
	case lang.Read:
		return leaf(logic.Obj(e.Obj)), nil
	case lang.Param:
		return leaf(logic.Param(e.Name)), nil
	case lang.TempVar:
		return leaf(logic.Temp(e.Name)), nil
	case lang.Neg:
		inner, err := Linearize(e.E)
		if err != nil {
			return Term{}, err
		}
		t := NewTerm()
		if !t.AddTerm(inner, -1) {
			return Term{}, ErrRange
		}
		return t, nil
	case lang.Bin:
		l, err := Linearize(e.L)
		if err != nil {
			return Term{}, err
		}
		r, err := Linearize(e.R)
		if err != nil {
			return Term{}, err
		}
		var ok bool
		switch e.Op {
		case lang.OpAdd:
			ok = l.AddTerm(r, 1)
		case lang.OpSub:
			ok = l.AddTerm(r, -1)
		case lang.OpMul:
			if !l.IsConst() && !r.IsConst() {
				return Term{}, ErrNonLinear
			}
			if !l.IsConst() {
				l, r = r, l
			}
			k := l.Const
			l = NewTerm()
			ok = l.AddTerm(r, k)
		default:
			return Term{}, fmt.Errorf("lia: unknown operator %v", e.Op)
		}
		if !ok {
			return Term{}, ErrRange
		}
		return l, nil
	case lang.ArrayRead:
		return Term{}, fmt.Errorf("lia: array read %s; lower L++ to L first", e)
	}
	return Term{}, fmt.Errorf("lia: unknown expression %T", e)
}

// leaf is the term 1·v.
func leaf(v logic.Var) Term {
	t := NewTerm()
	t.AddVar(v, 1)
	return t
}

// ErrDisjunctive is returned for a disequality: a != b is the disjunction
// a < b || a > b, which a conjunction of constraints cannot state.
var ErrDisjunctive = fmt.Errorf("lia: disequality is disjunctive")

// AtomConstraints canonicalizes "l op r" into constraints of the form
// Term {<=,<,=} 0 using integer arithmetic only. A disequality is
// ErrDisjunctive; callers split on it.
func AtomConstraints(op lang.CmpOp, l, r lang.Expr) ([]Constraint, error) {
	lt, err := Linearize(l)
	if err != nil {
		return nil, err
	}
	rt, err := Linearize(r)
	if err != nil {
		return nil, err
	}
	diff := NewTerm()
	if !diff.AddTerm(lt, 1) || !diff.AddTerm(rt, -1) { // diff = l - r
		return nil, ErrRange
	}
	switch op {
	case lang.CmpLT: // l - r < 0
		return []Constraint{{Term: diff, Op: LT}}, nil
	case lang.CmpLE:
		return []Constraint{{Term: diff, Op: LE}}, nil
	case lang.CmpEQ:
		return []Constraint{{Term: diff, Op: EQ}}, nil
	case lang.CmpGT, lang.CmpGE: // r - l < 0, r - l <= 0
		neg := NewTerm()
		if !neg.AddTerm(diff, -1) {
			return nil, ErrRange
		}
		if op == lang.CmpGT {
			return []Constraint{{Term: neg, Op: LT}}, nil
		}
		return []Constraint{{Term: neg, Op: LE}}, nil
	case lang.CmpNE:
		return nil, ErrDisjunctive
	}
	return nil, fmt.Errorf("lia: unknown comparison %v", op)
}

// FormulaToConstraints converts a purely conjunctive guard into canonical
// constraints. Disjunctions, negations of non-comparisons, and
// disequalities are rejected; use the treaty preprocessing (Appendix C.1)
// to eliminate them first.
func FormulaToConstraints(b lang.BoolExpr) ([]Constraint, error) {
	switch b := b.(type) {
	case lang.BoolLit:
		if b.Value {
			return nil, nil
		}
		// Encode false as 1 <= 0.
		t := NewTerm()
		t.Const = 1
		return []Constraint{{Term: t, Op: LE}}, nil
	case lang.Cmp:
		return AtomConstraints(b.Op, b.L, b.R)
	case lang.And:
		l, err := FormulaToConstraints(b.L)
		if err != nil {
			return nil, err
		}
		r, err := FormulaToConstraints(b.R)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case lang.Not:
		if a, ok := b.B.(lang.Cmp); ok {
			return AtomConstraints(a.Op.Negate(), a.L, a.R)
		}
		return nil, fmt.Errorf("lia: negation of non-comparison %s", b.B)
	}
	return nil, fmt.Errorf("lia: non-conjunctive guard %T", b)
}
