// Package maxsat implements the Fu-Malik partial MaxSAT algorithm (Fu &
// Malik, SAT'06) on top of internal/sat, as used by the Homeostasis
// paper's treaty optimizer ("we use the Fu-Malik Max SAT procedure in the
// Microsoft Z3 SMT solver", Section 5.2).
//
// Partial MaxSAT: given hard clauses that must hold and soft clauses to
// satisfy as many of as possible, Fu-Malik iteratively solves, extracts an
// unsatisfiable core of soft clauses, relaxes every soft clause in the
// core with a fresh blocking variable, adds an at-most-one constraint over
// the new blocking variables, and repeats until satisfiable. The number of
// iterations equals the number of falsified soft clauses in the optimum.
//
// A round's core is sat.Core's over the soft clauses' selectors: the one
// front-first deletion finds, in selector order, which fixes the blocking
// variables' numbering. Only a round's first solve, on a freshly reset
// instance, decides the model; the core's queries decide nothing else. An
// empty core means the hard clauses alone are unsatisfiable.
package maxsat

import (
	"fmt"
	"slices"

	"repro/internal/sat"
)

// Clause is a disjunction of literals.
type Clause []sat.Lit

// span locates one clause in a literal arena.
type span struct{ off, n int }

// Problem is a partial MaxSAT instance; the zero value is empty. Variables
// are 1-based; use NewVar to allocate. Clause literals are copied into one
// arena, so a Problem that is Reset and refilled allocates nothing once it
// has grown.
type Problem struct {
	nVars int
	lits  []sat.Lit
	hard  []span
	soft  []span
}

// Reset empties the instance, keeping its storage.
func (p *Problem) Reset() {
	p.nVars = 0
	p.lits, p.hard, p.soft = p.lits[:0], p.hard[:0], p.soft[:0]
}

// NewVar allocates a fresh variable.
func (p *Problem) NewVar() int {
	p.nVars++
	return p.nVars
}

// AddHard adds a clause that any solution must satisfy.
func (p *Problem) AddHard(lits ...sat.Lit) { p.hard = append(p.hard, p.add(lits)) }

// AddSoft adds a clause the solver should satisfy if possible. All soft
// clauses have unit weight (the paper's instances are unweighted).
func (p *Problem) AddSoft(lits ...sat.Lit) { p.soft = append(p.soft, p.add(lits)) }

func (p *Problem) add(lits []sat.Lit) span {
	for _, l := range lits {
		if v := l.Var(); v > p.nVars {
			p.nVars = v
		}
	}
	p.lits = append(p.lits, lits...)
	return span{len(p.lits) - len(lits), len(lits)}
}

func (p *Problem) clause(c span) Clause { return p.lits[c.off : c.off+c.n] }

// Result is the outcome of a MaxSAT solve.
type Result struct {
	// Feasible is false when the hard clauses alone are unsatisfiable.
	Feasible bool
	// Model is the satisfying assignment (indexed by variable, entry 0
	// unused) over the original variables.
	Model []bool
	// SatisfiedSoft[i] reports whether soft clause i is satisfied by
	// Model.
	SatisfiedSoft []bool
	// Cost is the number of falsified soft clauses (the Fu-Malik
	// iteration count).
	Cost int
	// Iterations counts SAT-solver invocations performed.
	Iterations int
}

// Solver runs Fu-Malik on one SAT instance it keeps: every round of every
// Solve rebuilds its formula into the storage the largest one grew. The
// zero value is ready to use.
type Solver struct {
	sat       *sat.Solver
	lits      []sat.Lit   // arena of the cardinality clauses added so far
	added     []span      // those clauses, after the problem's hard ones
	relax     [][]sat.Lit // relaxation literals per soft clause
	selectors []sat.Lit
	clause    []sat.Lit // one soft clause as the SAT solver sees it
	model     []bool
	satisfied []bool

	// core is how a round minimizes its failed selectors; nil means
	// (*sat.Solver).Core. Tests hold it to another exact method.
	core func(*sat.Solver, []sat.Lit) []sat.Lit
}

// Solve runs the Fu-Malik algorithm and returns the optimal result, whose
// slices are valid until the next Solve. The problem is not modified.
func (m *Solver) Solve(p *Problem) Result {
	if m.sat == nil {
		m.sat = sat.New()
	}
	if m.core == nil {
		m.core = (*sat.Solver).Core
	}
	s := m.sat
	// Working state: soft clauses accumulate relaxation literals across
	// rounds, hard clauses accumulate cardinality constraints, and nVars
	// grows with blocking variables. The caller's Problem stays untouched.
	nVars := p.nVars
	m.lits, m.added = m.lits[:0], m.added[:0]
	for len(m.relax) < len(p.soft) {
		m.relax = append(m.relax, nil)
	}
	for i := range p.soft {
		m.relax[i] = m.relax[i][:0]
	}
	m.selectors = slices.Grow(m.selectors[:0], len(p.soft))[:len(p.soft)]
	res := Result{Feasible: true}
	cost := 0
	for {
		// The formula is rebuilt each round because clause contents change.
		s.Reset()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, c := range p.hard {
			s.AddClause(p.clause(c)...)
		}
		for _, c := range m.added {
			s.AddClause(m.lits[c.off : c.off+c.n]...)
		}
		// Selector variable per soft clause: clause_i || !sel_i, assumed
		// true. Selectors are numbered consecutively from firstSel.
		firstSel := nVars + 1
		for i, c := range p.soft {
			m.selectors[i] = sat.Lit(s.NewVar())
			m.clause = append(append(append(m.clause[:0], p.clause(c)...), m.relax[i]...), m.selectors[i].Neg())
			s.AddClause(m.clause...)
		}
		res.Iterations++
		if s.Solve(m.selectors...) == sat.Sat {
			m.model = slices.Grow(m.model[:0], p.nVars+1)[:p.nVars+1]
			m.model[0] = false
			for v := 1; v <= p.nVars; v++ {
				m.model[v] = s.ModelValue(sat.Lit(v))
			}
			m.satisfied = slices.Grow(m.satisfied[:0], len(p.soft))[:len(p.soft)]
			for i, c := range p.soft {
				m.satisfied[i] = clauseSatisfied(p.clause(c), m.model)
			}
			res.Model, res.SatisfiedSoft, res.Cost = m.model, m.satisfied, cost
			return res
		}
		// Extract a core of soft-clause selectors and relax. The core is
		// empty exactly when the hard clauses alone are unsatisfiable.
		core := m.core(s, m.selectors)
		if len(core) == 0 {
			res.Feasible = false
			return res
		}
		cost++
		// Add one fresh blocking variable per core clause, and an
		// at-most-one (pairwise) constraint over them as hard clauses. The
		// blocking variables are nVars+1 .. nVars+len(core).
		for k, sel := range core {
			i := int(sel) - firstSel
			if i < 0 || i >= len(p.soft) {
				panic(fmt.Sprintf("maxsat: unknown selector %d in core", sel))
			}
			m.relax[i] = append(m.relax[i], sat.Lit(nVars+1+k))
		}
		for i := 1; i <= len(core); i++ {
			for j := i + 1; j <= len(core); j++ {
				m.lits = append(m.lits, sat.Lit(-(nVars + i)), sat.Lit(-(nVars + j)))
				m.added = append(m.added, span{len(m.lits) - 2, 2})
			}
		}
		// Exactly-one is the classic formulation; at-least-one is implied
		// by the core being genuinely unsatisfiable, but adding it prunes
		// search.
		for k := 1; k <= len(core); k++ {
			m.lits = append(m.lits, sat.Lit(nVars+k))
		}
		m.added = append(m.added, span{len(m.lits) - len(core), len(core)})
		nVars += len(core)
	}
}

func clauseSatisfied(c Clause, model []bool) bool {
	for _, l := range c {
		v := l.Var()
		if v < len(model) && model[v] == l.Sign() {
			return true
		}
	}
	return false
}
