package treaty

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
)

// ParamBounds gives the inclusive range a transaction parameter can take,
// used to strengthen parameterized guards into parameter-free treaties
// (the paper pushes parameters into symbolic tables; at treaty time the
// worst case over the workload's parameter domain is what must hold).
type ParamBounds map[string][2]int64

// Preprocess implements Appendix C.1: it strengthens a guard psi, an L
// boolean expression that holds on the current database D under the given
// parameter binding, into a conjunction of linear constraints over
// database objects only.
//
//   - Conjuncts that are linear atoms are kept; strict inequalities are
//     normalized to non-strict using integrality (t < 0 becomes t+1 <= 0).
//   - Parameter occurrences in inequality conjuncts are replaced by their
//     worst-case bound so the constraint holds for every parameter value in
//     range; if no bounds are known the parameter is fixed to its current
//     value.
//   - Any conjunct outside the linear fragment (disjunctions, negations of
//     non-comparisons, disequalities, nonlinear atoms, equalities with
//     parameters) is replaced by constraints fixing each database object it
//     mentions to its current value — "any variables involved in the
//     subexpression have their values fixed to the current ones".
//
// The result implies psi, so enforcing it enforces psi.
func Preprocess(psi lang.BoolExpr, db lang.Database, params map[string]int64, bounds ParamBounds) (Global, error) {
	// Verify psi actually holds on D (it is the matched symbolic-table
	// row, so this is an internal consistency check).
	holds, err := lang.EvalBool(psi, &lang.Env{DB: db, Params: params})
	if err != nil {
		return Global{}, fmt.Errorf("treaty: evaluating psi on D: %w", err)
	}
	if !holds {
		return Global{}, fmt.Errorf("treaty: psi does not hold on the current database")
	}

	p := preprocessing{db: db}
	lang.Conjuncts(psi, func(conj lang.BoolExpr) {
		cs, err := lia.FormulaToConstraints(conj)
		if err != nil {
			// Outside the linear fragment: fix every object it mentions.
			p.fixVars(conj)
			return
		}
		start := len(p.out)
		for _, c := range cs {
			nc, ok := strengthenParams(c, params, bounds)
			if ok {
				nc, ok = normalizeStrict(nc)
			}
			if !ok {
				p.out = p.out[:start]
				p.fixVars(conj)
				return
			}
			p.out = append(p.out, nc)
		}
	})
	// strengthenParams keeps only object variables, and fixVars pins only
	// objects.
	g := Global{Constraints: p.out}
	if !g.Holds(db) {
		return Global{}, fmt.Errorf("treaty: internal error: preprocessed treaty does not hold on D")
	}
	return g, nil
}

// preprocessing is Preprocess's output in progress: the constraints so far
// and the objects a fallback has fixed (nil until one has).
type preprocessing struct {
	db    lang.Database
	out   []lia.Constraint
	fixed map[lang.ObjID]bool
}

// strengthenParams eliminates parameter variables from a constraint. For
// inequalities each parameter contribution is replaced by its worst-case
// (largest) value over the parameter's range; for equalities any parameter
// makes the clause non-strengthenable and the caller falls back to fixing.
// So does a worst case, or a constant with it added, that leaves int64: a
// wrapped bound would not imply the clause.
func strengthenParams(c lia.Constraint, params map[string]int64, bounds ParamBounds) (lia.Constraint, bool) {
	nc := c.Clone()
	for _, v := range c.Term.Vars() {
		switch v.Kind {
		case logic.ObjVar:
			continue
		case logic.ParamVar:
			coeff := nc.Term.Coeffs[v]
			delete(nc.Term.Coeffs, v)
			if nc.Op == lia.EQ {
				return lia.Constraint{}, false
			}
			var x int64
			if b, ok := bounds[v.Name]; ok {
				// Worst case for "term <= 0" maximizes coeff*p.
				x = b[1]
				if coeff < 0 {
					x = b[0]
				}
			} else if val, ok := params[v.Name]; ok {
				x = val
			} else {
				return lia.Constraint{}, false
			}
			w, ok := lang.Mul64(coeff, x)
			if ok {
				nc.Term.Const, ok = lang.Add64(nc.Term.Const, w)
			}
			if !ok {
				return lia.Constraint{}, false
			}
		default:
			return lia.Constraint{}, false
		}
	}
	return nc, true
}

// normalizeStrict rewrites t < 0 as t + 1 <= 0 (valid over integers),
// unless t's constant is the largest int64.
func normalizeStrict(c lia.Constraint) (lia.Constraint, bool) {
	if c.Op != lia.LT {
		return c, true
	}
	if c.Term.Const == math.MaxInt64 {
		return lia.Constraint{}, false
	}
	nc := c.Clone()
	nc.Term.Const++
	nc.Op = lia.LE
	return nc, true
}

// fixVars emits x = D(x) for every object the conjunct reads that no
// earlier conjunct fixed, in ascending object order.
func (p *preprocessing) fixVars(conj lang.BoolExpr) {
	start := len(p.out)
	p.fixBool(conj)
	slices.SortFunc(p.out[start:], func(a, b lia.Constraint) int {
		return logic.CompareVars(onlyVar(a.Term), onlyVar(b.Term))
	})
}

func (p *preprocessing) fixBool(b lang.BoolExpr) {
	switch n := b.(type) {
	case lang.Cmp:
		p.fixExpr(n.L)
		p.fixExpr(n.R)
	case lang.And:
		p.fixBool(n.L)
		p.fixBool(n.R)
	case lang.Or:
		p.fixBool(n.L)
		p.fixBool(n.R)
	case lang.Not:
		p.fixBool(n.B)
	}
}

func (p *preprocessing) fixExpr(e lang.Expr) {
	switch n := e.(type) {
	case lang.Read:
		if p.fixed[n.Obj] {
			return
		}
		if p.fixed == nil {
			p.fixed = make(map[lang.ObjID]bool)
		}
		p.fixed[n.Obj] = true
		t := lia.NewTerm()
		t.AddVar(logic.Obj(n.Obj), 1)
		t.Const = -p.db.Get(n.Obj)
		p.out = append(p.out, lia.Constraint{Term: t, Op: lia.EQ})
	case lang.Neg:
		p.fixExpr(n.E)
	case lang.Bin:
		p.fixExpr(n.L)
		p.fixExpr(n.R)
	}
}

// onlyVar is the variable of a one-variable term.
func onlyVar(t lia.Term) logic.Var {
	//homeo:nondet the term has one variable
	for v := range t.Coeffs {
		return v
	}
	return logic.Var{}
}
