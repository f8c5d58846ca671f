// Package lia is a linear integer arithmetic toolkit: canonical linear
// terms and constraints, linearization of symbolic expressions, and a
// Fourier–Motzkin feasibility procedure. It underpins symbolic-table
// pruning and treaty generation (Section 4.2, Appendix C of the
// Homeostasis paper).
package lia

import (
	"fmt"
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

// AddTerm adds scale * other to the term.
func (t *Term) AddTerm(other Term, scale int64) {
	for v, c := range other.Coeffs {
		t.AddVar(v, c*scale)
	}
	t.Const += other.Const * scale
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

// Eval evaluates the term under a binding.
func (t Term) Eval(b logic.Binding) (int64, error) {
	sum := t.Const
	for v, c := range t.Coeffs {
		val, ok := b(v)
		if !ok {
			return 0, fmt.Errorf("lia: unbound variable %s", v)
		}
		sum += c * val
	}
	return sum, nil
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

// Linearize converts a symbolic expression into a linear term, returning
// ErrNonLinear when the expression multiplies two non-constant subterms.
func Linearize(e logic.Expr) (Term, error) {
	switch e := e.(type) {
	case logic.Const:
		t := NewTerm()
		t.Const = e.Value
		return t, nil
	case logic.Ref:
		t := NewTerm()
		t.AddVar(e.Var, 1)
		return t, nil
	case logic.Add:
		l, err := Linearize(e.L)
		if err != nil {
			return Term{}, err
		}
		r, err := Linearize(e.R)
		if err != nil {
			return Term{}, err
		}
		l.AddTerm(r, 1)
		return l, nil
	case logic.Sub:
		l, err := Linearize(e.L)
		if err != nil {
			return Term{}, err
		}
		r, err := Linearize(e.R)
		if err != nil {
			return Term{}, err
		}
		l.AddTerm(r, -1)
		return l, nil
	case logic.Neg:
		inner, err := Linearize(e.E)
		if err != nil {
			return Term{}, err
		}
		out := NewTerm()
		out.AddTerm(inner, -1)
		return out, nil
	case logic.Mul:
		l, err := Linearize(e.L)
		if err != nil {
			return Term{}, err
		}
		r, err := Linearize(e.R)
		if err != nil {
			return Term{}, err
		}
		if l.IsConst() {
			out := NewTerm()
			out.AddTerm(r, l.Const)
			return out, nil
		}
		if r.IsConst() {
			out := NewTerm()
			out.AddTerm(l, r.Const)
			return out, nil
		}
		return Term{}, ErrNonLinear
	}
	return Term{}, fmt.Errorf("lia: unknown expression %T", e)
}

// AtomConstraints converts a comparison atom into one or two canonical
// constraints (a != b becomes the disjunction it is not, so CmpNE returns
// ErrDisjunctive; callers split on it).
var ErrDisjunctive = fmt.Errorf("lia: disequality is disjunctive")

// AtomConstraints canonicalizes "l op r" into constraints of the form
// Term {<=,<,=} 0 using integer arithmetic only.
func AtomConstraints(op lang.CmpOp, l, r logic.Expr) ([]Constraint, error) {
	lt, err := Linearize(l)
	if err != nil {
		return nil, err
	}
	rt, err := Linearize(r)
	if err != nil {
		return nil, err
	}
	diff := NewTerm()
	diff.AddTerm(lt, 1)
	diff.AddTerm(rt, -1) // diff = l - r
	switch op {
	case lang.CmpLT: // l - r < 0
		return []Constraint{{Term: diff, Op: LT}}, nil
	case lang.CmpLE:
		return []Constraint{{Term: diff, Op: LE}}, nil
	case lang.CmpEQ:
		return []Constraint{{Term: diff, Op: EQ}}, nil
	case lang.CmpGT: // r - l < 0
		neg := NewTerm()
		neg.AddTerm(diff, -1)
		return []Constraint{{Term: neg, Op: LT}}, nil
	case lang.CmpGE:
		neg := NewTerm()
		neg.AddTerm(diff, -1)
		return []Constraint{{Term: neg, Op: LE}}, nil
	case lang.CmpNE:
		return nil, ErrDisjunctive
	}
	return nil, fmt.Errorf("lia: unknown comparison %v", op)
}

// FormulaToConstraints converts a purely conjunctive formula into
// canonical constraints. Disjunctions, negations of non-atoms, and
// disequalities are rejected; use the treaty preprocessing (Appendix C.1)
// to eliminate them first.
func FormulaToConstraints(f logic.Formula) ([]Constraint, error) {
	switch f := f.(type) {
	case logic.TrueF:
		return nil, nil
	case logic.FalseF:
		// Encode false as 1 <= 0.
		t := NewTerm()
		t.Const = 1
		return []Constraint{{Term: t, Op: LE}}, nil
	case logic.Atom:
		return AtomConstraints(f.Op, f.L, f.R)
	case logic.AndF:
		var out []Constraint
		for _, p := range f.Parts {
			cs, err := FormulaToConstraints(p)
			if err != nil {
				return nil, err
			}
			out = append(out, cs...)
		}
		return out, nil
	case logic.NotF:
		if a, ok := f.F.(logic.Atom); ok {
			return AtomConstraints(a.Op.Negate(), a.L, a.R)
		}
		return nil, fmt.Errorf("lia: negation of non-atom %s", f.F)
	}
	return nil, fmt.Errorf("lia: non-conjunctive formula %T", f)
}
