package sat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// scanSolve is Solve as it was before the branching heap, kept as the
// reference the heap is held to: every decision scans all variables for
// the unassigned one of highest activity, ties to the lower index.
func scanSolve(s *Solver, assumptions ...Lit) Status {
	if s.hasEmpty {
		return Unsat
	}
	s.backtrackTo(0)
	qhead := 0
	for _, ci := range s.units {
		if !s.enqueue(s.lits[s.clauses[ci].off]) {
			return Unsat
		}
	}
	if s.propagate(&qhead) >= 0 {
		return Unsat
	}
	for _, a := range assumptions {
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
	s.decisions = s.decisions[:0]
	for {
		if conflict := s.propagate(&qhead); conflict >= 0 {
			s.bumpClause(conflict)
			for {
				if len(s.decisions) == 0 {
					return Unsat
				}
				d := &s.decisions[len(s.decisions)-1]
				if !d.flipped {
					s.backtrackTo(rootLevel + len(s.decisions) - 1)
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
		best, bestAct := 0, -1.0
		for v := 1; v <= s.nVars; v++ {
			if s.assigns[v] == valUnassigned && s.activity[v] > bestAct {
				best, bestAct = v, s.activity[v]
			}
		}
		if best == 0 {
			return Sat
		}
		s.Decisions++
		s.newDecisionLevel()
		s.decisions = append(s.decisions, decision{lit: Lit(best)})
		s.enqueue(Lit(best))
	}
}

// deletionCore is Core as it was before QuickXplain, kept as the reference
// Core is held to: drop each assumption in turn, front first, whose
// removal leaves the rest unsatisfiable.
func deletionCore(unsat func([]Lit) bool, assumptions []Lit) []Lit {
	core := slices.Clone(assumptions)
	for i := 0; i < len(core); {
		if unsat(slices.Delete(slices.Clone(core), i, i+1)) {
			core = slices.Delete(core, i, i+1)
		} else {
			i++
		}
	}
	return core
}

// TestHeapMatchesScan holds the heap's branching to the scan's: on
// searchCorpus, and on pigeonhole instances long enough to rescale the
// activities, every call returns the same verdict and model after the
// same decisions, propagations and conflicts.
func TestHeapMatchesScan(t *testing.T) {
	corpus := append(searchCorpus(), pigeonhole(5), pigeonhole(7))
	rescaled := false
	for i, clauses := range corpus {
		assumptions := []Lit{clauses[0][0].Neg(), clauses[len(clauses)-1][0].Neg()}
		heap, scan := New(), New()
		for _, cl := range clauses {
			heap.AddClause(cl...)
			scan.AddClause(cl...)
		}
		for call, as := range [][]Lit{nil, assumptions, nil, {assumptions[1]}} {
			got, want := heap.Solve(as...), scanSolve(scan, as...)
			if got != want || !reflect.DeepEqual(heap.Model(), scan.Model()) {
				t.Fatalf("instance %d call %d: heap %v %v, scan %v %v", i, call, got, heap.Model(), want, scan.Model())
			}
			if g, w := [3]int64{heap.Decisions, heap.Propagations, heap.Conflicts}, [3]int64{scan.Decisions, scan.Propagations, scan.Conflicts}; g != w {
				t.Fatalf("instance %d call %d: heap counters %v, scan %v", i, call, g, w)
			}
		}
		rescaled = rescaled || heap.Conflicts > 4720 // 1.05^4720 > 1e100
	}
	if !rescaled {
		t.Fatal("no instance ran long enough to rescale the activities")
	}
}

// TestCoreMatchesDeletion holds Core to front-first deletion: on random
// monotone predicates (unsatisfiable exactly when the set contains one of
// a few random minimal sets), on searchCorpus under random assumptions,
// and on the shape the treaty optimizer asks for.
func TestCoreMatchesDeletion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var x explainer
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(12)
		o := &family{}
		for f := rng.Intn(4); f >= 0; f-- {
			var set []Lit
			for k := 1 + rng.Intn(4); k > 0; k-- {
				set = append(set, Lit(1+rng.Intn(n)))
			}
			o.sets = append(o.sets, set)
		}
		var assumptions []Lit
		for _, v := range rng.Perm(n) {
			if rng.Intn(4) > 0 {
				assumptions = append(assumptions, Lit(v+1))
			}
		}
		got, ok := x.explain(o, assumptions)
		if !o.unsat(assumptions) {
			if ok {
				t.Fatalf("trial %d: a core of satisfiable assumptions %v", trial, assumptions)
			}
			continue
		}
		if want := deletionCore(o.unsat, assumptions); !ok || !slices.Equal(got, want) {
			t.Fatalf("trial %d: sets %v, assumptions %v: core %v, deletion %v", trial, o.sets, assumptions, got, want)
		}
	}

	cores := 0
	for i, clauses := range searchCorpus() {
		s := New()
		for _, cl := range clauses {
			s.AddClause(cl...)
		}
		for k := 0; k < 10; k++ {
			var assumptions []Lit
			for j := rng.Intn(8); j >= 0; j-- {
				l := Lit(1 + rng.Intn(s.nVars))
				if rng.Intn(2) == 0 {
					l = l.Neg()
				}
				assumptions = append(assumptions, l)
			}
			if s.Solve(assumptions...) != Unsat {
				continue
			}
			cores++
			want := deletionCore(func(as []Lit) bool { return s.Solve(as...) == Unsat }, assumptions)
			if got := s.Core(assumptions); !slices.Equal(got, want) {
				t.Fatalf("instance %d: assumptions %v: core %v, deletion %v", i, assumptions, got, want)
			}
		}
	}
	if cores < 100 {
		t.Fatalf("only %d unsatisfiable assumption sets", cores)
	}

	// Fu-Malik's first round on maxsat's TestTreatyShapedInstance: soft
	// units s1..s4 behind selectors, s1 excludes s2 and s3 excludes s4.
	s := New()
	for v := 0; v < 8; v++ {
		s.NewVar()
	}
	s.AddClause(-1, -2)
	s.AddClause(-3, -4)
	selectors := []Lit{5, 6, 7, 8}
	for i, sel := range selectors {
		s.AddClause(Lit(i+1), sel.Neg())
	}
	want := deletionCore(func(as []Lit) bool { return s.Solve(as...) == Unsat }, selectors)
	if got := s.Core(selectors); !slices.Equal(got, want) || !slices.Equal(got, []Lit{7, 8}) {
		t.Fatalf("treaty-shaped core %v, deletion %v, want [7 8]", got, want)
	}
}

// family is a monotone oracle: a set is unsatisfiable when it contains
// every literal of one of sets.
type family struct{ sets [][]Lit }

func (f *family) unsat(as []Lit) bool {
	for _, set := range f.sets {
		if !slices.ContainsFunc(set, func(l Lit) bool { return !slices.Contains(as, l) }) {
			return true
		}
	}
	return false
}

// TestQueriesMatchSolve: a decision query answers as Solve on a fresh
// solver does, along runs of queries whose assumptions grow and shrink
// like QuickXplain's background, so most keep the levels of the one
// before, with Solves and new clauses in between that must not.
func TestQueriesMatchSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	queries := 0
	for i, clauses := range searchCorpus() {
		s := New()
		for _, cl := range clauses {
			s.AddClause(cl...)
		}
		var stack []Lit
		for k := 0; k < 40; k++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(stack) == 0:
				l := Lit(1 + rng.Intn(s.nVars))
				if rng.Intn(2) == 0 {
					l = l.Neg()
				}
				stack = append(stack, l)
			case r < 8:
				stack = stack[:rng.Intn(len(stack))]
			case r < 9:
				s.Solve(stack...)
			default:
				cl := clauses[rng.Intn(len(clauses))]
				clauses = append(clauses, cl)
				s.AddClause(cl...)
			}
			fresh := New()
			for _, cl := range clauses {
				fresh.AddClause(cl...)
			}
			if got, want := s.unsat(stack), fresh.Solve(stack...) == Unsat; got != want {
				t.Fatalf("instance %d step %d: query under %v unsat %v, Solve %v", i, k, stack, got, want)
			}
			queries++
		}
	}
	t.Logf("%d queries", queries)
}
