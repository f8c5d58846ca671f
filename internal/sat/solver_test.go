package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New()
	if s.Solve() != Sat {
		t.Fatal("empty formula should be SAT")
	}
	s.AddClause() // empty clause
	if s.Solve() != Unsat {
		t.Fatal("empty clause should be UNSAT")
	}
}

func TestUnitPropagation(t *testing.T) {
	s := New()
	a, b, c := Lit(s.NewVar()), Lit(s.NewVar()), Lit(s.NewVar())
	s.AddClause(a)
	s.AddClause(a.Neg(), b)
	s.AddClause(b.Neg(), c)
	if s.Solve() != Sat {
		t.Fatal("chain should be SAT")
	}
	if !s.ModelValue(a) || !s.ModelValue(b) || !s.ModelValue(c) {
		t.Fatalf("model = %v, want all true", s.Model())
	}
}

func TestSimpleUnsat(t *testing.T) {
	s := New()
	a := Lit(s.NewVar())
	s.AddClause(a)
	s.AddClause(a.Neg())
	if s.Solve() != Unsat {
		t.Fatal("a && !a should be UNSAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := Lit(s.NewVar())
	s.AddClause(a, a.Neg()) // tautology: no constraint
	s.AddClause(a.Neg())
	if s.Solve() != Sat || s.ModelValue(a) {
		t.Fatal("tautology should not constrain")
	}
}

func TestPigeonhole3x2(t *testing.T) {
	// 3 pigeons, 2 holes: classic small UNSAT instance.
	s := New()
	// p[i][j]: pigeon i in hole j.
	var p [3][2]Lit
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			p[i][j] = Lit(s.NewVar())
		}
	}
	for i := 0; i < 3; i++ {
		s.AddClause(p[i][0], p[i][1]) // each pigeon somewhere
	}
	for j := 0; j < 2; j++ {
		for i1 := 0; i1 < 3; i1++ {
			for i2 := i1 + 1; i2 < 3; i2++ {
				s.AddClause(p[i1][j].Neg(), p[i2][j].Neg())
			}
		}
	}
	if s.Solve() != Unsat {
		t.Fatal("PHP(3,2) should be UNSAT")
	}
}

func TestPigeonhole3x3Sat(t *testing.T) {
	s := New()
	var p [3][3]Lit
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			p[i][j] = Lit(s.NewVar())
		}
	}
	for i := 0; i < 3; i++ {
		s.AddClause(p[i][0], p[i][1], p[i][2])
	}
	for j := 0; j < 3; j++ {
		for i1 := 0; i1 < 3; i1++ {
			for i2 := i1 + 1; i2 < 3; i2++ {
				s.AddClause(p[i1][j].Neg(), p[i2][j].Neg())
			}
		}
	}
	if s.Solve() != Sat {
		t.Fatal("PHP(3,3) should be SAT")
	}
	// Verify model is a valid assignment.
	m := s.Model()
	holeUsed := [3]int{}
	for i := 0; i < 3; i++ {
		found := false
		for j := 0; j < 3; j++ {
			if m[p[i][j].Var()] {
				found = true
				holeUsed[j]++
			}
		}
		if !found {
			t.Fatalf("pigeon %d unplaced", i)
		}
	}
	for j, n := range holeUsed {
		if n > 1 {
			t.Fatalf("hole %d used %d times", j, n)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := Lit(s.NewVar()), Lit(s.NewVar())
	s.AddClause(a.Neg(), b)
	// Under assumption a, b is forced.
	if s.Solve(a) != Sat || !s.ModelValue(b) {
		t.Fatal("a => b should force b under assumption a")
	}
	// Assumptions a and !b conflict with the clause.
	if s.Solve(a, b.Neg()) != Unsat {
		t.Fatal("a && !b should be UNSAT")
	}
	// Solver is reusable after UNSAT.
	if s.Solve(a.Neg(), b.Neg()) != Sat {
		t.Fatal("!a && !b should be SAT")
	}
}

func TestCoreMinimization(t *testing.T) {
	s := New()
	// x1..x5; clause x1 && !x1 conflict only via assumptions s1,s2.
	x := Lit(s.NewVar())
	s1, s2, s3 := Lit(s.NewVar()), Lit(s.NewVar()), Lit(s.NewVar())
	s.AddClause(s1.Neg(), x)       // s1 -> x
	s.AddClause(s2.Neg(), x.Neg()) // s2 -> !x
	// s3 is irrelevant.
	assumptions := []Lit{s3, s1, s2}
	if s.Solve(assumptions...) != Unsat {
		t.Fatal("should be UNSAT under conflicting assumptions")
	}
	core := s.Core(assumptions)
	if len(core) != 2 {
		t.Fatalf("core = %v, want exactly {s1, s2}", core)
	}
	seen := map[Lit]bool{}
	for _, l := range core {
		seen[l] = true
	}
	if !seen[s1] || !seen[s2] || seen[s3] {
		t.Fatalf("core = %v, want {s1, s2}", core)
	}
}

// TestRandom3SATAgainstBruteForce cross-checks the solver against
// exhaustive enumeration on random small instances.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nVars := 3 + rng.Intn(8) // 3..10
		nClauses := 1 + rng.Intn(40)
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for j := range cl {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					cl[j] = Lit(v)
				} else {
					cl[j] = Lit(-v)
				}
			}
			clauses[i] = cl
		}
		// Brute force.
		bruteSat := false
		for m := 0; m < 1<<nVars; m++ {
			ok := true
			for _, cl := range clauses {
				cok := false
				for _, l := range cl {
					bit := (m>>(l.Var()-1))&1 == 1
					if bit == l.Sign() {
						cok = true
						break
					}
				}
				if !cok {
					ok = false
					break
				}
			}
			if ok {
				bruteSat = true
				break
			}
		}
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, cl := range clauses {
			s.AddClause(cl...)
		}
		got := s.Solve()
		if bruteSat && got != Sat {
			t.Fatalf("trial %d: solver says %v, brute force says SAT\nclauses: %v", trial, got, clauses)
		}
		if !bruteSat && got != Unsat {
			t.Fatalf("trial %d: solver says %v, brute force says UNSAT\nclauses: %v", trial, got, clauses)
		}
		if got == Sat {
			// Verify the model actually satisfies every clause.
			m := s.Model()
			for _, cl := range clauses {
				ok := false
				for _, l := range cl {
					if m[l.Var()] == l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("trial %d: reported model does not satisfy %v", trial, cl)
				}
			}
		}
	}
}

func TestSolverReuseAcrossCalls(t *testing.T) {
	s := New()
	a, b := Lit(s.NewVar()), Lit(s.NewVar())
	s.AddClause(a, b)
	for i := 0; i < 10; i++ {
		if s.Solve(a.Neg()) != Sat {
			t.Fatalf("iteration %d: expected SAT", i)
		}
		if !s.ModelValue(b) {
			t.Fatalf("iteration %d: b must be true when a assumed false", i)
		}
		if s.Solve(a.Neg(), b.Neg()) != Unsat {
			t.Fatalf("iteration %d: expected UNSAT", i)
		}
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	a := Lit(s.NewVar())
	s.AddClause(a, a, a)
	if s.Solve() != Sat || !s.ModelValue(a) {
		t.Fatal("duplicate literals mishandled")
	}
}

// TestResetMatchesFresh: a solver that is Reset between formulas behaves on
// each exactly like a fresh one — same verdicts, same models, same cores
// and, through the search counters, the same trajectory. The corpus is the
// one the tests above use: random small 3-SAT (duplicate literals,
// tautologies and unit clauses included), pigeonhole, assumptions.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var corpus [][][]Lit
	for trial := 0; trial < 200; trial++ {
		nVars := 3 + rng.Intn(8)
		clauses := make([][]Lit, 1+rng.Intn(40))
		for i := range clauses {
			cl := make([]Lit, 1+rng.Intn(3))
			for j := range cl {
				cl[j] = Lit(1 + rng.Intn(nVars))
				if rng.Intn(2) == 0 {
					cl[j] = cl[j].Neg()
				}
			}
			clauses[i] = cl
		}
		corpus = append(corpus, clauses)
	}
	for _, holes := range []int{2, 3, 4} { // PHP(holes+1, holes)
		var php [][]Lit
		at := func(p, h int) Lit { return Lit(1 + p*holes + h) }
		for p := 0; p <= holes; p++ {
			var cl []Lit
			for h := 0; h < holes; h++ {
				cl = append(cl, at(p, h))
			}
			php = append(php, cl)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 <= holes; p1++ {
				for p2 := p1 + 1; p2 <= holes; p2++ {
					php = append(php, []Lit{at(p1, h).Neg(), at(p2, h).Neg()})
				}
			}
		}
		corpus = append(corpus, php)
	}

	type outcome struct {
		plain, assumed Status
		model          []bool
		core           []Lit
		counters       [3]int64
	}
	run := func(s *Solver, clauses [][]Lit, assumptions []Lit) outcome {
		for _, cl := range clauses {
			s.AddClause(cl...)
		}
		var o outcome
		if o.plain = s.Solve(); o.plain == Sat {
			o.model = s.Model()
		}
		if o.assumed = s.Solve(assumptions...); o.assumed == Unsat && o.plain == Sat {
			o.core = s.Core(assumptions)
		}
		o.counters = [3]int64{s.Decisions, s.Propagations, s.Conflicts}
		return o
	}
	reused := New()
	for i, clauses := range corpus {
		assumptions := []Lit{clauses[0][0].Neg(), clauses[len(clauses)-1][0].Neg()}
		reused.Reset()
		got, want := run(reused, clauses, assumptions), run(New(), clauses, assumptions)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d: reset solver %+v, fresh solver %+v", i, got, want)
		}
	}
}
