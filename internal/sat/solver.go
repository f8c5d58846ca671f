// Package sat implements a CNF boolean satisfiability solver: DPLL search
// with unit propagation over two-watched-literal clause lists, dynamic
// (activity-based) branching from a max-heap, assumption literals, and
// minimal unsat cores over assumptions.
//
// Solve branches on the unassigned variable of highest activity, ties to
// the lower index. The variables wait in a heap ordered that way, built at
// a solve's first branching decision from the variables unassigned then:
// an assigned one leaves it when it surfaces at pick time, and
// backtracking puts unassigned ones back. Every pick is therefore the one
// a scan over all variables makes, at a cost logarithmic in their number.
//
// Core asks only decision queries, whose models nobody reads. It returns
// the core front-first deletion over the assumptions returns, found by
// QuickXplain (Junker, AAAI'04) over the reversed assumption order with
// O(k log(n/k)) queries for a core of k out of n assumptions instead of n.
// A query touches neither activities nor the heap, stops as soon as every
// clause is satisfied, and keeps the levels of the leading assumptions it
// shares with the query before it.
//
// It is the engine under internal/maxsat's Fu-Malik procedure, which the
// treaty generator (Section 4.2 / Appendix C.2 of the Homeostasis paper)
// uses to pick optimal treaty configurations. The paper used Z3; this is a
// from-scratch stdlib-only replacement sized for the instances Algorithm 1
// produces.
package sat

import (
	"fmt"
	"slices"
)

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

	// order is the branching heap over variables (see better); at[v] is
	// v's slot in it, or -1. While stale is set — after new variables, or
	// a decision query, which leaves the heap alone — neither means
	// anything, and the next branching decision rebuilds the heap from the
	// variables unassigned then (refill).
	order []int32
	at    []int32
	stale bool

	// hasEmpty is set when an empty (always-false) clause was added.
	hasEmpty bool

	// kept are the leading assumptions of the last decision query whose
	// levels are still on the trail, fully propagated: keptLim[i] is the
	// number of decision levels once kept[i] was asserted. A query that
	// starts with the same assumptions backtracks only to where they part.
	// Anything but a query empties them.
	kept    []Lit
	keptLim []int

	// Scratch retained across Solve and Core calls.
	decisions []decision
	core      explainer

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
	// sat is, in a decision query, how many leading clauses the
	// assignments before this decision satisfy (see search).
	sat int32
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
	s.order = s.order[:0]
	s.at = append(s.at[:0], -1)
	s.stale = true
	s.kept, s.keptLim = s.kept[:0], s.keptLim[:0]
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
	s.kept, s.keptLim = s.kept[:0], s.keptLim[:0]
	s.nVars++
	s.assigns = append(s.assigns, valUnassigned)
	s.activity = append(s.activity, 0)
	s.at = append(s.at, -1)
	s.stale = true
	for len(s.watches) < (s.nVars+1)<<1 {
		s.watches = append(s.watches, nil)
	}
	return s.nVars
}

// ensureVar grows the variable space to cover v.
func (s *Solver) ensureVar(v int) {
	for s.nVars < v {
		s.NewVar()
	}
}

// AddClause adds a clause. Duplicate literals are removed; tautologies are
// dropped; empty clauses make the instance trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) {
	s.kept, s.keptLim = s.kept[:0], s.keptLim[:0]
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
		v := s.trail[i].Var()
		s.assigns[v] = valUnassigned
		if !s.stale && s.at[v] < 0 {
			s.insert(int32(v))
		}
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
}

// pickBranchVar returns the unassigned variable with the highest
// activity, ties to the lower index, or 0 when all variables are assigned.
// Assigned variables met on top of the heap leave it.
func (s *Solver) pickBranchVar() int {
	if s.stale {
		s.refill()
	}
	for len(s.order) > 0 {
		v := s.removeTop()
		if s.assigns[v] == valUnassigned {
			return int(v)
		}
	}
	return 0
}

func (s *Solver) bumpClause(ci int32) {
	for _, l := range s.clauseLits(ci) {
		v := l.Var()
		s.activity[v] += s.varInc
		if !s.stale && s.at[v] >= 0 {
			s.up(s.at[v])
		}
	}
	s.varInc *= 1.05
	if s.varInc > 1e100 {
		for v := 1; v <= s.nVars; v++ {
			s.activity[v] *= 1e-100
		}
		s.varInc *= 1e-100
		// Rescaling keeps the order of any two activities but can make
		// them equal, and equal ones order by index.
		if !s.stale {
			s.heapify()
		}
	}
}

// better is the branching order: higher activity first, then lower index.
func (s *Solver) better(a, b int32) bool {
	if x, y := s.activity[a], s.activity[b]; x != y {
		return x > y
	}
	return a < b
}

func (s *Solver) insert(v int32) {
	s.at[v] = int32(len(s.order))
	s.order = append(s.order, v)
	s.up(s.at[v])
}

func (s *Solver) removeTop() int32 {
	top, last := s.order[0], s.order[len(s.order)-1]
	s.order = s.order[:len(s.order)-1]
	s.at[top] = -1
	if len(s.order) > 0 {
		s.order[0], s.at[last] = last, 0
		s.down(0)
	}
	return top
}

func (s *Solver) up(i int32) {
	v := s.order[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.better(v, s.order[p]) {
			break
		}
		s.order[i], s.at[s.order[p]] = s.order[p], i
		i = p
	}
	s.order[i], s.at[v] = v, i
}

func (s *Solver) down(i int32) {
	v, n := s.order[i], int32(len(s.order))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.better(s.order[c+1], s.order[c]) {
			c++
		}
		if !s.better(s.order[c], v) {
			break
		}
		s.order[i], s.at[s.order[c]] = s.order[c], i
		i = c
	}
	s.order[i], s.at[v] = v, i
}

// heapify restores the heap order over the heap's current members.
func (s *Solver) heapify() {
	for i := int32(len(s.order))/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// refill makes a stale heap hold exactly the unassigned variables.
func (s *Solver) refill() {
	s.order = s.order[:0]
	for v := 1; v <= s.nVars; v++ {
		s.at[v] = -1
		if s.assigns[v] == valUnassigned {
			s.at[v] = int32(len(s.order))
			s.order = append(s.order, int32(v))
		}
	}
	s.heapify()
	s.stale = false
}

// Solve decides satisfiability under the given assumption literals.
// On Sat, Model reports the assignment. On Unsat with assumptions, the
// failed assumptions can be minimized with Core.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.search(assumptions, false)
}

// search is Solve, or with query set a decision query: the same verdict,
// but the branching takes a literal of the first unsatisfied clause, and
// activities and the heap stay as they were. A query's model is not meant
// to be read.
func (s *Solver) search(assumptions []Lit, query bool) Status {
	if s.hasEmpty {
		return Unsat
	}
	s.stale = s.stale || query
	m := 0
	if query {
		for m < len(s.kept) && m < len(assumptions) && s.kept[m] == assumptions[m] {
			m++
		}
	}
	s.kept, s.keptLim = s.kept[:m], s.keptLim[:m]
	qhead := 0
	if m > 0 {
		s.backtrackTo(s.keptLim[m-1])
		qhead = len(s.trail)
	} else {
		s.backtrackTo(0)
		// Assert unit clauses at level 0.
		for _, ci := range s.units {
			if !s.enqueue(s.lits[s.clauses[ci].off]) {
				return Unsat
			}
		}
		if s.propagate(&qhead) >= 0 {
			return Unsat
		}
	}
	// Assert assumptions, each at its own decision level.
	for _, a := range assumptions[m:] {
		if a == 0 || a.Var() > s.nVars {
			panic(fmt.Sprintf("sat: bad assumption %d", a))
		}
		switch s.value(a) {
		case valTrue:
		case valFalse:
			return Unsat
		default:
			s.newDecisionLevel()
			s.enqueue(a)
			if s.propagate(&qhead) >= 0 {
				return Unsat
			}
		}
		if query {
			s.kept, s.keptLim = append(s.kept, a), append(s.keptLim, len(s.trailLim))
		}
	}
	rootLevel := len(s.trailLim)

	// DPLL with chronological backtracking; decisions[i] is the choice at
	// level rootLevel+i. A query stops once every clause is satisfied: the
	// clauses before sat are, and it branches on a literal of the first
	// clause that is not.
	s.decisions = s.decisions[:0]
	sat := int32(0)
	for {
		conflict := s.propagate(&qhead)
		if conflict >= 0 {
			if !query {
				s.bumpClause(conflict)
			}
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
					sat = d.sat
					break
				}
				s.decisions = s.decisions[:len(s.decisions)-1]
				s.backtrackTo(rootLevel + len(s.decisions))
				qhead = len(s.trail)
			}
			continue
		}
		var l Lit
		if query {
			l, sat = s.pickUnsatisfied(sat)
		} else {
			l = Lit(s.pickBranchVar())
		}
		if l == 0 {
			return Sat // no conflict, and all variables assigned or all clauses satisfied
		}
		s.Decisions++
		s.newDecisionLevel()
		s.decisions = append(s.decisions, decision{lit: l, sat: sat})
		s.enqueue(l)
	}
}

// pickUnsatisfied returns the first unassigned literal of the first clause
// from sat on that no literal satisfies, and that clause's index, or 0 when
// every clause is satisfied. Propagation has run, so such a clause has an
// unassigned literal.
func (s *Solver) pickUnsatisfied(sat int32) (Lit, int32) {
	for ; int(sat) < len(s.clauses); sat++ {
		if l, satisfied := s.freeLit(sat); !satisfied {
			if l == 0 {
				panic("sat: a clause is false without a conflict")
			}
			return l, sat
		}
	}
	return 0, sat
}

// freeLit returns the first unassigned literal of clause ci, and whether a
// literal satisfies the clause.
func (s *Solver) freeLit(ci int32) (Lit, bool) {
	var free Lit
	for _, l := range s.clauseLits(ci) {
		switch s.value(l) {
		case valTrue:
			return 0, true
		case valUnassigned:
			if free == 0 {
				free = l
			}
		}
	}
	return free, false
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

// Core returns a minimal subset of the given assumptions that is still
// unsatisfiable together with the clause database, in assumption order:
// exactly the subset deletion-based minimization returns when it drops
// each assumption in turn, front first, whose removal leaves the rest
// unsatisfiable. The slice is valid until the next Core call. The
// assumptions must be jointly Unsat; Core panics otherwise.
func (s *Solver) Core(assumptions []Lit) []Lit {
	core, ok := s.core.explain(s, assumptions)
	if !ok {
		panic("sat: Core called on satisfiable assumptions")
	}
	return core
}

// unsat is the decision query a core is built from.
func (s *Solver) unsat(assumptions []Lit) bool { return s.search(assumptions, true) == Unsat }

// oracle answers whether a set of assumptions is unsatisfiable; the
// answer must be monotone (a superset of an unsatisfiable set is one).
type oracle interface {
	unsat(assumptions []Lit) bool
}

// explainer is QuickXplain's scratch. Candidates are positions into the
// assumptions; the background is the positions assumed in every query.
type explainer struct {
	assumptions []Lit
	cand        []int32 // most preferred first: the last assumption leads
	bg          []int32
	found       []int32
	query       []Lit
	out         []Lit
}

// explain returns the preferred conflict among the assumptions in
// assumption order, or false when they are satisfiable. Front-first
// deletion keeps assumption i exactly when the kept ones before it and all
// after it are satisfiable without it; QuickXplain over the reversed order
// keeps the same ones.
func (x *explainer) explain(o oracle, assumptions []Lit) ([]Lit, bool) {
	x.assumptions = assumptions
	x.cand, x.bg, x.found = x.cand[:0], x.bg[:0], x.found[:0]
	for i := len(assumptions) - 1; i >= 0; i-- {
		x.cand = append(x.cand, int32(i))
	}
	// Unlike QuickXplain's, this background may be unsatisfiable by
	// itself (the clauses alone are), and then deletion drops everything.
	if !o.unsat(x.assumed()) {
		// The whole set goes in candidate order, which the first split
		// query starts with, so that query keeps its levels.
		x.bg = append(x.bg, x.cand...)
		unsat := o.unsat(x.assumed())
		x.bg = x.bg[:0]
		if !unsat {
			return nil, false
		}
		x.split(o, false, x.cand)
	}
	slices.Sort(x.found)
	x.out = x.out[:0]
	for _, i := range x.found {
		x.out = append(x.out, assumptions[i])
	}
	return x.out, true
}

// split is QuickXplain's recursion: it adds to found the members of cand
// the preferred conflict of bg ∪ cand needs beyond bg. grown reports that
// bg gained members since the caller last knew it satisfiable.
func (x *explainer) split(o oracle, grown bool, cand []int32) {
	if grown && o.unsat(x.assumed()) {
		return
	}
	if len(cand) == 1 {
		x.found = append(x.found, cand[0])
		return
	}
	k := len(cand) / 2
	n, before := len(x.bg), len(x.found)
	x.bg = append(x.bg, cand[:k]...)
	x.split(o, true, cand[k:])
	x.bg = append(x.bg[:n], x.found[before:]...)
	x.split(o, len(x.found) > before, cand[:k])
	x.bg = x.bg[:n]
}

// assumed is the background as literals.
func (x *explainer) assumed() []Lit {
	x.query = x.query[:0]
	for _, i := range x.bg {
		x.query = append(x.query, x.assumptions[i])
	}
	return x.query
}
