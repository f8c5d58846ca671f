package lia

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/logic"
)

var (
	ca = logic.Config("a")
	cb = logic.Config("b")
	cc = logic.Config("c")
)

func TestSolveModelSimpleBounds(t *testing.T) {
	// 3 <= a <= 7: model exists and is verified.
	cs := []Constraint{
		c(term(-7, ca, 1), LE), // a - 7 <= 0
		c(term(3, ca, -1), LE), // 3 - a <= 0
	}
	m, ok := SolveModel(cs)
	if !ok {
		t.Fatal("feasible system rejected")
	}
	if m[ca] < 3 || m[ca] > 7 {
		t.Fatalf("a = %d outside [3,7]", m[ca])
	}
	// Preference: the upper bound.
	if m[ca] != 7 {
		t.Fatalf("a = %d, want upper bound 7", m[ca])
	}
}

func TestSolveModelInfeasible(t *testing.T) {
	cs := []Constraint{
		c(term(-2, ca, 1), LE), // a <= 2
		c(term(3, ca, -1), LE), // a >= 3
	}
	if _, ok := SolveModel(cs); ok {
		t.Fatal("infeasible system accepted")
	}
}

func TestSolveModelTreatyShape(t *testing.T) {
	// The optimizer's instance shape: per-variable upper bounds plus a
	// sum lower bound (H1): a <= -12, b <= -7, a + b >= -20.
	cs := []Constraint{
		c(term(12, ca, 1), LE),           // a + 12 <= 0  => a <= -12
		c(term(7, cb, 1), LE),            // b <= -7
		c(term(-20, ca, -1, cb, -1), LE), // -a - b - 20 <= 0 => a + b >= -20
	}
	m, ok := SolveModel(cs)
	if !ok {
		t.Fatal("treaty-shaped system rejected")
	}
	if m[ca] > -12 || m[cb] > -7 || m[ca]+m[cb] < -20 {
		t.Fatalf("model a=%d b=%d violates constraints", m[ca], m[cb])
	}
}

func TestSolveModelEquality(t *testing.T) {
	// a = 5, b <= a, b >= 2.
	cs := []Constraint{
		c(term(-5, ca, 1), EQ),
		c(term(0, cb, 1, ca, -1), LE),
		c(term(2, cb, -1), LE),
	}
	m, ok := SolveModel(cs)
	if !ok {
		t.Fatal("rejected")
	}
	if m[ca] != 5 || m[cb] < 2 || m[cb] > 5 {
		t.Fatalf("model %v", m)
	}
}

func TestSolveModelStrict(t *testing.T) {
	// a < 5 over integers: a <= 4 expected with upper preference.
	cs := []Constraint{c(term(-5, ca, 1), LT)}
	m, ok := SolveModel(cs)
	if !ok {
		t.Fatal("rejected")
	}
	if m[ca] != 4 {
		t.Fatalf("a = %d, want 4", m[ca])
	}
}

func TestSolveModelEmpty(t *testing.T) {
	m, ok := SolveModel(nil)
	if !ok || len(m) != 0 {
		t.Fatal("empty system should yield the empty model")
	}
}

// TestSolveModelRandomConsistency: whenever SolveModel returns a model it
// satisfies the system (verified internally; double-check here) and
// whenever Feasible says no, SolveModel agrees.
func TestSolveModelRandomConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vars := []logic.Var{ca, cb, cc}
	for trial := 0; trial < 400; trial++ {
		var cs []Constraint
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			tm := NewTerm()
			for _, v := range vars {
				if rng.Intn(2) == 0 {
					tm.AddVar(v, int64(rng.Intn(5)-2))
				}
			}
			tm.Const = int64(rng.Intn(21) - 10)
			op := []RelOp{LE, LT, EQ}[rng.Intn(3)]
			cs = append(cs, Constraint{Term: tm, Op: op})
		}
		m, ok := SolveModel(cs)
		if ok {
			bind := func(v logic.Var) (int64, bool) { val, ok := m[v]; return val, ok }
			for _, cst := range cs {
				holds, err := cst.Eval(bind)
				if err != nil || !holds {
					t.Fatalf("trial %d: model %v violates %v", trial, m, cst)
				}
			}
		} else if !ok && Feasible(cs) {
			// SolveModel is allowed to miss integer models in narrow
			// rational windows; tolerate only when strict constraints or
			// non-unit coefficients are present.
			hasHard := false
			for _, cst := range cs {
				if cst.Op == LT || cst.Op == EQ {
					hasHard = true
				}
				for _, co := range cst.Term.Coeffs {
					if co != 1 && co != -1 {
						hasHard = true
					}
				}
			}
			if !hasHard {
				t.Fatalf("trial %d: SolveModel missed a model for unit-coefficient system %v", trial, cs)
			}
		}
	}
}

func TestTightenBoundsCollapses(t *testing.T) {
	cs := []Constraint{
		c(term(-9, ca, 1), LE),           // a <= 9
		c(term(-5, ca, 1), LE),           // a <= 5 (tighter)
		c(term(-12, ca, 1), LE),          // a <= 12
		c(term(1, ca, -1), LE),           // a >= 1
		c(term(3, ca, -1), LE),           // a >= 3 (tighter)
		c(term(-20, ca, -1, cb, -1), LE), // multi-var: kept
		c(term(-4, cb, 1), EQ),           // equality: kept
	}
	out := TightenBounds(cs)
	// Expect: multi-var + equality + one upper + one lower = 4.
	if len(out) != 4 {
		t.Fatalf("tightened to %d constraints, want 4: %v", len(out), out)
	}
	// Semantics must be preserved: same feasibility and same bounds.
	lo, _, up, _ := Bounds(out, ca)
	if lo != 3 || up != 5 {
		t.Fatalf("bounds after tightening = [%d, %d], want [3, 5]", lo, up)
	}
}

func TestTightenBoundsStrict(t *testing.T) {
	cs := []Constraint{
		c(term(-5, ca, 1), LT), // a < 5 => a <= 4
		c(term(-6, ca, 1), LE), // a <= 6
	}
	out := TightenBounds(cs)
	if len(out) != 1 {
		t.Fatalf("len = %d", len(out))
	}
	_, _, up, hasUp := Bounds(out, ca)
	if !hasUp || up != 4 {
		t.Fatalf("up = %d, want 4", up)
	}
}

func TestTightenBoundsCoefficients(t *testing.T) {
	// 2a <= 9 => a <= 4; -3a <= -7 => a >= ceil(7/3) = 3.
	cs := []Constraint{
		c(term(-9, ca, 2), LE),
		c(term(7, ca, -3), LE),
	}
	out := TightenBounds(cs)
	lo, hasLo, up, hasUp := Bounds(out, ca)
	if !hasLo || !hasUp || lo != 3 || up != 4 {
		t.Fatalf("bounds = [%d(%v), %d(%v)], want [3, 4]", lo, hasLo, up, hasUp)
	}
}

// TestTightenBoundsEquisatisfiable: tightening never changes SolveModel's
// verdict on random bound-heavy systems.
func TestTightenBoundsEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		var cs []Constraint
		for i := 0; i < 2+rng.Intn(10); i++ {
			v := []logic.Var{ca, cb}[rng.Intn(2)]
			tm := NewTerm()
			sign := int64(1)
			if rng.Intn(2) == 0 {
				sign = -1
			}
			tm.AddVar(v, sign)
			tm.Const = int64(rng.Intn(21) - 10)
			cs = append(cs, Constraint{Term: tm, Op: LE})
		}
		_, okFull := SolveModel(cs)
		_, okTight := SolveModel(TightenBounds(cs))
		if okFull != okTight {
			t.Fatalf("trial %d: tightening changed satisfiability (%v -> %v): %v",
				trial, okFull, okTight, cs)
		}
	}
}

// TestSolveModelAllocs: on a treaty-shaped system the integer kernel
// allocates nothing on a System that has grown to size, and the
// slice-of-Constraint entry point only the model it returns.
func TestSolveModelAllocs(t *testing.T) {
	cs := []Constraint{
		c(term(12, ca, 1), LE),
		c(term(7, cb, 1), LE),
		c(term(3, cc, 1), LT),
		c(term(-40, ca, -1, cb, -1, cc, -1), LE),
	}
	var s System
	s.load(cs)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := s.SolveModel(); !ok {
			t.Fatal("feasible system rejected")
		}
	}); n != 0 {
		t.Fatalf("System.SolveModel allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := SolveModel(cs); !ok {
			t.Fatal("feasible system rejected")
		}
	}); n > 4 && !raceEnabled {
		t.Fatalf("SolveModel allocates %.0f objects, ceiling 4", n)
	}
}

// TestOverflowRestartsOnReference: when a product leaves int64 the kernel
// reports it instead of an answer, and the call is answered by the
// reference procedure.
func TestOverflowRestartsOnReference(t *testing.T) {
	const big = math.MaxInt64
	systems := [][]Constraint{
		{ // a lower and an upper bound on a whose combination multiplies big by big
			c(term(0, ca, big, cb, 1), LE),
			c(term(1, ca, -big, cb, 5), LE),
			c(term(-3, cb, 1), LE),
		},
		{ // an equality pivot with a huge coefficient
			c(term(7, ca, big, cb, -3), EQ),
			c(term(0, ca, big-1, cb, 2), LE),
		},
		{ // a bound that only overflows in back-substitution
			c(term(0, ca, 1, cb, -(big/2)), LE),
			c(term(-5, cb, -1), LE),
			c(term(0, cb, 1), LE),
			c(term(-10, ca, -1), LE),
		},
	}
	overflowed := 0
	for i, cs := range systems {
		var s System
		s.load(cs)
		s.vals = make([]int64, len(s.vars))
		feasible, ok := s.forward()
		if ok && feasible {
			_, ok = s.back(len(cs))
		}
		s.Truncate(len(cs))
		if !ok {
			overflowed++
		}
		got, gotOK := SolveModel(cs)
		want, wantOK := SolveModelRat(cs)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("system %d: SolveModel = %v %v, reference %v %v", i, got, gotOK, want, wantOK)
		}
		if Feasible(cs) != FeasibleRat(cs) {
			t.Fatalf("system %d: Feasible disagrees with the reference", i)
		}
	}
	if overflowed < 2 {
		t.Fatalf("only %d of %d systems left int64: the test does not reach the fallback", overflowed, len(systems))
	}
}
