// Package sat implements a CNF boolean satisfiability solver: DPLL search
// with unit propagation over two-watched-literal clause lists, dynamic
// (activity-based) branching, assumption literals, and deletion-minimized
// unsat cores over assumptions.
//
// It is the engine under internal/maxsat's Fu-Malik procedure, which the
// treaty generator (Section 4.2 / Appendix C.2 of the Homeostasis paper)
// uses to pick optimal treaty configurations. The paper used Z3; this is a
// from-scratch stdlib-only replacement sized for the instances Algorithm 1
// produces.
package sat

import "fmt"

// Lit is a literal: +v for variable v, -v for its negation. Variables are
// numbered from 1.
type Lit int

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

// clause is a clause's span in the solver's literal arena.
type clause struct {
	off, n int32
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means Solve has not run or was interrupted.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

const (
	valUnassigned int8 = iota
	valTrue
	valFalse
)

// Solver holds a CNF instance and solver state. The zero value is not
// usable; call New. Clause literals live in one arena and watch lists are
// indexed by literal, so a Reset solver re-adds a formula without
// allocating once its storage has grown to size.
type Solver struct {
	nVars    int
	lits     []Lit     // clause literal arena
	clauses  []clause  // spans into lits, in insertion order
	units    []int32   // indices of the one-literal clauses, in insertion order
	watches  [][]int32 // clause indices watching each literal; see watchIdx
	assigns  []int8    // indexed by var, 1-based
	trail    []Lit
	trailLim []int // trail index at each decision level
	activity []float64
	varInc   float64

	// hasEmpty is set when an empty (always-false) clause was added.
	hasEmpty bool

	// Scratch retained across Solve and Core calls.
	decisions []decision
	trial     []Lit

	// Stats counters.
	Decisions    int64
	Propagations int64
	Conflicts    int64
}

// decision is one branching choice of the DPLL search; flipped records
// whether it has already been tried both ways.
type decision struct {
	lit     Lit
	flipped bool
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{}
	s.Reset()
	return s
}

// Reset returns the solver to the state New leaves it in — no variables,
// no clauses, zeroed activities and counters — keeping the storage it has
// grown. A formula added after Reset is solved exactly as on a fresh
// solver.
func (s *Solver) Reset() {
	s.nVars = 0
	s.lits = s.lits[:0]
	s.clauses = s.clauses[:0]
	s.units = s.units[:0]
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.assigns = append(s.assigns[:0], valUnassigned) // index 0 unused
	s.activity = append(s.activity[:0], 0)
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.varInc = 1.0
	s.hasEmpty = false
	s.Decisions, s.Propagations, s.Conflicts = 0, 0, 0
}

// watchIdx is a literal's slot in the watch table.
func watchIdx(l Lit) int {
	if l < 0 {
		return int(-l)<<1 | 1
	}
	return int(l) << 1
}

// NewVar allocates a fresh variable and returns its index (1-based).
func (s *Solver) NewVar() int {
	s.nVars++
	s.assigns = append(s.assigns, valUnassigned)
	s.activity = append(s.activity, 0)
	for len(s.watches) < (s.nVars+1)<<1 {
		s.watches = append(s.watches, nil)
	}
	return s.nVars
}

// NVars returns the number of allocated variables.
func (s *Solver) NVars() int { return s.nVars }

// ensureVar grows the variable space to cover v.
func (s *Solver) ensureVar(v int) {
	for s.nVars < v {
		s.NewVar()
	}
}

// AddClause adds a clause. Duplicate literals are removed; tautologies are
// dropped; empty clauses make the instance trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) {
	off := len(s.lits)
next:
	for _, l := range lits {
		if l == 0 {
			panic("sat: zero literal")
		}
		s.ensureVar(l.Var())
		for _, kept := range s.lits[off:] {
			if kept == l.Neg() {
				s.lits = s.lits[:off]
				return // tautology
			}
			if kept == l {
				continue next
			}
		}
		s.lits = append(s.lits, l)
	}
	n := len(s.lits) - off
	if n == 0 {
		s.hasEmpty = true
		return
	}
	ci := int32(len(s.clauses))
	s.clauses = append(s.clauses, clause{off: int32(off), n: int32(n)})
	// Watch the first two literals (unit clauses handled at solve start).
	if n >= 2 {
		w0, w1 := watchIdx(s.lits[off]), watchIdx(s.lits[off+1])
		s.watches[w0] = append(s.watches[w0], ci)
		s.watches[w1] = append(s.watches[w1], ci)
	} else {
		s.units = append(s.units, ci)
	}
}

// clauseLits returns clause ci's literals, in the arena.
func (s *Solver) clauseLits(ci int32) []Lit {
	c := s.clauses[ci]
	return s.lits[c.off : c.off+c.n]
}

func (s *Solver) value(l Lit) int8 {
	a := s.assigns[l.Var()]
	if a == valUnassigned {
		return valUnassigned
	}
	if l.Sign() == (a == valTrue) {
		return valTrue
	}
	return valFalse
}

func (s *Solver) enqueue(l Lit) bool {
	switch s.value(l) {
	case valTrue:
		return true
	case valFalse:
		return false
	}
	if l.Sign() {
		s.assigns[l.Var()] = valTrue
	} else {
		s.assigns[l.Var()] = valFalse
	}
	s.trail = append(s.trail, l)
	s.Propagations++
	return true
}

// propagate runs unit propagation from the given trail position, returning
// the conflicting clause's index or -1.
func (s *Solver) propagate(qhead *int) int32 {
	for *qhead < len(s.trail) {
		l := s.trail[*qhead]
		*qhead++
		falsified := l.Neg()
		fi := watchIdx(falsified)
		// The list is compacted in place: a clause only ever moves to the
		// list of a literal that is not false, never back onto this one.
		ws := s.watches[fi]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			c := s.clauseLits(ci)
			// Ensure falsified is at position 1.
			if c[0] == falsified {
				c[0], c[1] = c[1], c[0]
			}
			if s.value(c[0]) == valTrue {
				kept = append(kept, ci)
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for j := 2; j < len(c); j++ {
				if s.value(c[j]) != valFalse {
					c[1], c[j] = c[j], c[1]
					wi := watchIdx(c[1])
					s.watches[wi] = append(s.watches[wi], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, ci)
			if !s.enqueue(c[0]) {
				// Conflict: keep remaining watchers and report.
				kept = append(kept, ws[i+1:]...)
				s.watches[fi] = kept
				s.Conflicts++
				return ci
			}
		}
		s.watches[fi] = kept
	}
	return -1
}

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) backtrackTo(level int) {
	if len(s.trailLim) <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		s.assigns[s.trail[i].Var()] = valUnassigned
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
}

// pickBranchVar returns the unassigned variable with the highest activity,
// or 0 when all variables are assigned.
func (s *Solver) pickBranchVar() int {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.nVars; v++ {
		if s.assigns[v] == valUnassigned && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

func (s *Solver) bumpClause(ci int32) {
	for _, l := range s.clauseLits(ci) {
		s.activity[l.Var()] += s.varInc
	}
	s.varInc *= 1.05
	if s.varInc > 1e100 {
		for v := 1; v <= s.nVars; v++ {
			s.activity[v] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// Solve decides satisfiability under the given assumption literals.
// On Sat, Model reports the assignment. On Unsat with assumptions, the
// failed assumptions can be minimized with Core.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if s.hasEmpty {
		return Unsat
	}
	s.backtrackTo(0)
	qhead := 0
	// Assert unit clauses at level 0.
	for _, ci := range s.units {
		if !s.enqueue(s.lits[s.clauses[ci].off]) {
			return Unsat
		}
	}
	if s.propagate(&qhead) >= 0 {
		return Unsat
	}
	// Assert assumptions, each at its own decision level.
	for _, a := range assumptions {
		if a == 0 || a.Var() > s.nVars {
			panic(fmt.Sprintf("sat: bad assumption %d", a))
		}
		switch s.value(a) {
		case valTrue:
			continue
		case valFalse:
			return Unsat
		}
		s.newDecisionLevel()
		s.enqueue(a)
		if s.propagate(&qhead) >= 0 {
			return Unsat
		}
	}
	rootLevel := len(s.trailLim)

	// DPLL with chronological backtracking; decisions[i] is the choice at
	// level rootLevel+i.
	s.decisions = s.decisions[:0]
	for {
		conflict := s.propagate(&qhead)
		if conflict >= 0 {
			s.bumpClause(conflict)
			// Backtrack to the most recent unflipped decision.
			for {
				if len(s.decisions) == 0 {
					return Unsat
				}
				d := &s.decisions[len(s.decisions)-1]
				if !d.flipped {
					lvl := rootLevel + len(s.decisions) - 1
					s.backtrackTo(lvl)
					qhead = len(s.trail)
					d.flipped = true
					d.lit = d.lit.Neg()
					s.newDecisionLevel()
					s.enqueue(d.lit)
					break
				}
				s.decisions = s.decisions[:len(s.decisions)-1]
				s.backtrackTo(rootLevel + len(s.decisions))
				qhead = len(s.trail)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return Sat // all variables assigned, no conflict
		}
		s.Decisions++
		s.newDecisionLevel()
		s.decisions = append(s.decisions, decision{lit: Lit(v)})
		s.enqueue(Lit(v))
	}
}

// Model returns the satisfying assignment after a Sat result, indexed by
// variable (entry 0 unused).
func (s *Solver) Model() []bool {
	out := make([]bool, s.nVars+1)
	for v := 1; v <= s.nVars; v++ {
		out[v] = s.assigns[v] == valTrue
	}
	return out
}

// ModelValue returns the assigned value of a literal after Sat.
func (s *Solver) ModelValue(l Lit) bool {
	if l.Sign() {
		return s.assigns[l.Var()] == valTrue
	}
	return s.assigns[l.Var()] != valTrue
}

// Core returns a minimized subset of the given assumptions that is still
// unsatisfiable together with the clause database. It uses deletion-based
// minimization (re-solving with each assumption removed), which is simple
// and adequate for the small soft-constraint sets Algorithm 1 generates.
// The assumptions must be jointly Unsat; Core panics otherwise.
func (s *Solver) Core(assumptions []Lit) []Lit {
	if st := s.Solve(assumptions...); st != Unsat {
		panic("sat: Core called on satisfiable assumptions")
	}
	core := append([]Lit(nil), assumptions...)
	for i := 0; i < len(core); {
		trial := append(append(s.trial[:0], core[:i]...), core[i+1:]...)
		s.trial = trial
		if s.Solve(trial...) == Unsat {
			core = append(core[:i], core[i+1:]...) // assumption i is unnecessary
		} else {
			i++
		}
	}
	return core
}
