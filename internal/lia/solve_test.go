package lia

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/logic"
)

var (
	ca = logic.Config("a")
	cb = logic.Config("b")
	cc = logic.Config("c")
)

// model is System.SolveModel on cs, keyed by variable like the reference
// SolveModelRat's.
func model(cs []Constraint) (map[logic.Var]int64, bool) {
	var s System
	s.load(cs)
	vals, ok := s.SolveModel()
	if !ok {
		return nil, false
	}
	m := make(map[logic.Var]int64, len(vals))
	for j, v := range s.vars {
		m[v] = vals[j]
	}
	return m, true
}

// tightened is System.TightenBounds on cs, as constraints.
func tightened(cs []Constraint) []Constraint {
	var s System
	s.load(cs)
	s.TightenBounds()
	return s.Constraints()
}

// implies is System.ImpliesLast on the premises followed by the conclusion.
func implies(premises []Constraint, conclusion Constraint) bool {
	var s System
	s.load(append(premises[:len(premises):len(premises)], conclusion))
	return s.ImpliesLast()
}

// strs renders constraints for comparison.
func strs(cs []Constraint) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

func TestSolveModelSimpleBounds(t *testing.T) {
	// 3 <= a <= 7: model exists and is verified.
	cs := []Constraint{
		c(term(-7, ca, 1), LE), // a - 7 <= 0
		c(term(3, ca, -1), LE), // 3 - a <= 0
	}
	m, ok := model(cs)
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
	if _, ok := model(cs); ok {
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
	m, ok := model(cs)
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
	m, ok := model(cs)
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
	m, ok := model(cs)
	if !ok {
		t.Fatal("rejected")
	}
	if m[ca] != 4 {
		t.Fatalf("a = %d, want 4", m[ca])
	}
}

func TestSolveModelEmpty(t *testing.T) {
	m, ok := model(nil)
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
		m, ok := model(cs)
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
	// Expect: multi-var + equality, then a's lower and upper bound.
	want := []Constraint{
		c(term(-20, ca, -1, cb, -1), LE),
		c(term(-4, cb, 1), EQ),
		c(term(3, ca, -1), LE),
		c(term(-5, ca, 1), LE),
	}
	if out := tightened(cs); !slices.Equal(strs(out), strs(want)) {
		t.Fatalf("tightened to %v, want %v", out, want)
	}
}

func TestTightenBoundsStrict(t *testing.T) {
	cs := []Constraint{
		c(term(-5, ca, 1), LT), // a < 5 => a <= 4
		c(term(-6, ca, 1), LE), // a <= 6
	}
	want := []Constraint{c(term(-4, ca, 1), LE)} // a <= 4
	if out := tightened(cs); !slices.Equal(strs(out), strs(want)) {
		t.Fatalf("tightened to %v, want %v", out, want)
	}
}

func TestTightenBoundsCoefficients(t *testing.T) {
	// 2a <= 9 => a <= 4; -3a <= -7 => a >= ceil(7/3) = 3.
	cs := []Constraint{
		c(term(-9, ca, 2), LE),
		c(term(7, ca, -3), LE),
	}
	want := []Constraint{c(term(3, ca, -1), LE), c(term(-4, ca, 1), LE)} // 3 <= a <= 4
	if out := tightened(cs); !slices.Equal(strs(out), strs(want)) {
		t.Fatalf("tightened to %v, want %v", out, want)
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
		_, okFull := model(cs)
		_, okTight := model(tightened(cs))
		if okFull != okTight {
			t.Fatalf("trial %d: tightening changed satisfiability (%v -> %v): %v",
				trial, okFull, okTight, cs)
		}
	}
}

// TestSolveModelAllocs: on a treaty-shaped system the integer kernel
// allocates nothing on a System that has grown to size.
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
		got, gotOK := model(cs)
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

// TestCheckedArithmeticIsExact: Add64 and Mul64 report exactly the results
// that fit an int64, on every pair of values around the limits and the
// square root of the range.
func TestCheckedArithmeticIsExact(t *testing.T) {
	var vals []int64
	for _, v := range []int64{0, 1, 2, 3, 1 << 31, 3037000499, 3037000500, 1 << 32, math.MaxInt64 - 1, math.MaxInt64} {
		vals = append(vals, v, -v)
	}
	vals = append(vals, math.MinInt64, math.MinInt64+1)
	fits := func(x *big.Int) bool { return x.IsInt64() }
	for _, a := range vals {
		for _, b := range vals {
			want := new(big.Int).Add(big.NewInt(a), big.NewInt(b))
			if s, ok := Add64(a, b); ok != fits(want) || ok && s != want.Int64() {
				t.Errorf("Add64(%d, %d) = %d, %v; exact %v", a, b, s, ok, want)
			}
			want.Mul(big.NewInt(a), big.NewInt(b))
			if p, ok := Mul64(a, b); ok != fits(want) || ok && p != want.Int64() {
				t.Errorf("Mul64(%d, %d) = %d, %v; exact %v", a, b, p, ok, want)
			}
		}
	}
}
