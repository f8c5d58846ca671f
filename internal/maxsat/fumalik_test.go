package maxsat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sat"
)

func TestAllSoftSatisfiable(t *testing.T) {
	p := new(Problem)
	a, b := sat.Lit(p.NewVar()), sat.Lit(p.NewVar())
	p.AddHard(a, b)
	p.AddSoft(a)
	p.AddSoft(b)
	res := new(Solver).Solve(p)
	if !res.Feasible || res.Cost != 0 {
		t.Fatalf("cost = %d feasible = %v, want 0/true", res.Cost, res.Feasible)
	}
	for i, ok := range res.SatisfiedSoft {
		if !ok {
			t.Fatalf("soft %d unsatisfied in optimum", i)
		}
	}
}

func TestOneMustFall(t *testing.T) {
	p := new(Problem)
	a := sat.Lit(p.NewVar())
	p.AddSoft(a)
	p.AddSoft(a.Neg())
	res := new(Solver).Solve(p)
	if !res.Feasible || res.Cost != 1 {
		t.Fatalf("cost = %d, want 1", res.Cost)
	}
	n := 0
	for _, ok := range res.SatisfiedSoft {
		if ok {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("satisfied %d soft clauses, want exactly 1", n)
	}
}

func TestInfeasibleHard(t *testing.T) {
	p := new(Problem)
	a := sat.Lit(p.NewVar())
	p.AddHard(a)
	p.AddHard(a.Neg())
	p.AddSoft(a)
	res := new(Solver).Solve(p)
	if res.Feasible {
		t.Fatal("contradictory hard clauses should be infeasible")
	}
}

func TestHardDominatesSoft(t *testing.T) {
	p := new(Problem)
	a, b, c := sat.Lit(p.NewVar()), sat.Lit(p.NewVar()), sat.Lit(p.NewVar())
	p.AddHard(a.Neg()) // a must be false
	p.AddSoft(a)       // impossible
	p.AddSoft(b)
	p.AddSoft(c)
	res := new(Solver).Solve(p)
	if !res.Feasible || res.Cost != 1 {
		t.Fatalf("cost = %d, want 1", res.Cost)
	}
	if res.SatisfiedSoft[0] {
		t.Fatal("soft clause contradicting hard must be falsified")
	}
	if !res.SatisfiedSoft[1] || !res.SatisfiedSoft[2] {
		t.Fatal("free soft clauses should be satisfied")
	}
}

func TestProblemNotMutated(t *testing.T) {
	p := new(Problem)
	a := sat.Lit(p.NewVar())
	p.AddSoft(a)
	p.AddSoft(a.Neg())
	nHard, nSoft, nVars := len(p.hard), len(p.soft), p.nVars
	_ = new(Solver).Solve(p)
	if len(p.hard) != nHard || len(p.soft) != nSoft || p.nVars != nVars {
		t.Fatalf("Solve mutated problem: hard %d->%d soft %d->%d vars %d->%d",
			nHard, len(p.hard), nSoft, len(p.soft), nVars, p.nVars)
	}
	// Solving twice gives the same cost.
	r1, r2 := new(Solver).Solve(p), new(Solver).Solve(p)
	if r1.Cost != r2.Cost {
		t.Fatalf("non-deterministic cost: %d vs %d", r1.Cost, r2.Cost)
	}
}

// TestAgainstBruteForce compares Fu-Malik's optimum against exhaustive
// search on random small instances.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		nVars := 2 + rng.Intn(6)
		p := new(Problem)
		for v := 0; v < nVars; v++ {
			p.NewVar()
		}
		randClause := func() Clause {
			k := 1 + rng.Intn(3)
			cl := make(Clause, k)
			for j := range cl {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					cl[j] = sat.Lit(v)
				} else {
					cl[j] = sat.Lit(-v)
				}
			}
			return cl
		}
		var hard, soft []Clause
		for i := 0; i < rng.Intn(4); i++ {
			cl := randClause()
			hard = append(hard, cl)
			p.AddHard(cl...)
		}
		for i := 0; i < 1+rng.Intn(8); i++ {
			cl := randClause()
			soft = append(soft, cl)
			p.AddSoft(cl...)
		}
		// Brute force optimum.
		bestCost := -1
		for m := 0; m < 1<<nVars; m++ {
			model := make([]bool, nVars+1)
			for v := 1; v <= nVars; v++ {
				model[v] = (m>>(v-1))&1 == 1
			}
			feasible := true
			for _, cl := range hard {
				if !clauseSatisfied(cl, model) {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			cost := 0
			for _, cl := range soft {
				if !clauseSatisfied(cl, model) {
					cost++
				}
			}
			if bestCost == -1 || cost < bestCost {
				bestCost = cost
			}
		}
		res := new(Solver).Solve(p)
		if bestCost == -1 {
			if res.Feasible {
				t.Fatalf("trial %d: should be infeasible", trial)
			}
			continue
		}
		if !res.Feasible {
			t.Fatalf("trial %d: should be feasible", trial)
		}
		if res.Cost != bestCost {
			t.Fatalf("trial %d: cost = %d, brute force = %d\nhard: %v\nsoft: %v",
				trial, res.Cost, bestCost, hard, soft)
		}
		// Verify the model: all hard satisfied, falsified soft count == Cost.
		for _, cl := range hard {
			if !clauseSatisfied(cl, res.Model) {
				t.Fatalf("trial %d: model violates hard clause %v", trial, cl)
			}
		}
		cost := 0
		for i, cl := range soft {
			sat := clauseSatisfied(cl, res.Model)
			if sat != res.SatisfiedSoft[i] {
				t.Fatalf("trial %d: SatisfiedSoft[%d] inconsistent with model", trial, i)
			}
			if !sat {
				cost++
			}
		}
		if cost != res.Cost {
			t.Fatalf("trial %d: model cost %d != reported %d", trial, cost, res.Cost)
		}
	}
}

// TestTreatyShapedInstance exercises the exact encoding shape the treaty
// optimizer produces: selector variables with hard at-most constraints.
func TestTreatyShapedInstance(t *testing.T) {
	// Selectors s1..s4 each "choose" a bound; hard constraint forbids
	// choosing both s1 and s2, and both s3 and s4. Optimum satisfies 2.
	p := new(Problem)
	s1, s2 := sat.Lit(p.NewVar()), sat.Lit(p.NewVar())
	s3, s4 := sat.Lit(p.NewVar()), sat.Lit(p.NewVar())
	p.AddHard(s1.Neg(), s2.Neg())
	p.AddHard(s3.Neg(), s4.Neg())
	for _, s := range []sat.Lit{s1, s2, s3, s4} {
		p.AddSoft(s)
	}
	res := new(Solver).Solve(p)
	if res.Cost != 2 {
		t.Fatalf("cost = %d, want 2", res.Cost)
	}
}

// deletionCore is the core rounds took before QuickXplain: drop each
// selector in turn, front first, whose removal leaves the rest
// unsatisfiable.
func deletionCore(s *sat.Solver, assumptions []sat.Lit) []sat.Lit {
	core := slices.Clone(assumptions)
	for i := 0; i < len(core); {
		if s.Solve(slices.Delete(slices.Clone(core), i, i+1)...) == sat.Unsat {
			core = slices.Delete(core, i, i+1)
		} else {
			i++
		}
	}
	return core
}

// TestCoresMatchDeletion: every round finds the core deletion finds, so
// the result — model, cost and rounds — is deletion's, on the treaty
// optimizer's shape (unit softs over selectors, hard clauses that each
// block a set of them) and on random clauses.
func TestCoresMatchDeletion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var problems []*Problem
	p := new(Problem) // TestTreatyShapedInstance
	s1, s2 := sat.Lit(p.NewVar()), sat.Lit(p.NewVar())
	s3, s4 := sat.Lit(p.NewVar()), sat.Lit(p.NewVar())
	p.AddHard(s1.Neg(), s2.Neg())
	p.AddHard(s3.Neg(), s4.Neg())
	for _, s := range []sat.Lit{s1, s2, s3, s4} {
		p.AddSoft(s)
	}
	problems = append(problems, p)
	for trial := 0; trial < 300; trial++ {
		p := new(Problem)
		n := 1 + rng.Intn(16)
		for v := 1; v <= n; v++ {
			p.AddSoft(sat.Lit(p.NewVar()))
		}
		for b := rng.Intn(6); b > 0; b-- {
			var block []sat.Lit
			for k := 1 + rng.Intn(4); k > 0; k-- {
				block = append(block, sat.Lit(-(1 + rng.Intn(n))))
			}
			p.AddHard(block...)
		}
		if trial%3 == 0 { // random clauses besides
			for c := rng.Intn(4); c >= 0; c-- {
				l := sat.Lit(1 + rng.Intn(n))
				if rng.Intn(2) == 0 {
					l = l.Neg()
				}
				p.AddSoft(l, sat.Lit(1+rng.Intn(n)))
				p.AddHard(l.Neg(), sat.Lit(-(1 + rng.Intn(n))))
			}
		}
		problems = append(problems, p)
	}
	var quick, deletion Solver
	deletion.core = deletionCore
	for i, p := range problems {
		got, want := quick.Solve(p), deletion.Solve(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("problem %d: %+v, with deletion cores %+v", i, got, want)
		}
	}
}
