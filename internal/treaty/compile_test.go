package treaty

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
)

// term builds sum coeff_i*obj_i + konst from alternating (obj, coeff)
// pairs.
func testTerm(konst int64, pairs ...any) lia.Term {
	t := lia.NewTerm()
	t.Const = konst
	for i := 0; i < len(pairs); i += 2 {
		t.AddVar(logic.Obj(lang.ObjID(pairs[i].(string))), int64(pairs[i+1].(int)))
	}
	return t
}

// cons is the constraint in canonical form, whatever order the pairs come
// in.
func cons(op lia.RelOp, konst int64, pairs ...any) Constraint {
	return flat(lia.Constraint{Term: testTerm(konst, pairs...), Op: op})
}

// flat is a map-backed constraint over objects in the flat canonical form.
func flat(c lia.Constraint) Constraint {
	out := Constraint{Const: c.Term.Const, Op: c.Op}
	for _, v := range c.Term.Vars() {
		out.Terms = append(out.Terms, Term{Obj: lang.ObjID(v.Name), Coeff: c.Term.Coeffs[v]})
	}
	return out
}

// TestCompileIntervalFastPath pins the demarcation shape: upper and lower
// bounds on the same sum compile into a single interval check.
func TestCompileIntervalFastPath(t *testing.T) {
	// q + dq <= 66 && q + dq >= 1, written canonically:
	//   q + dq - 66 <= 0   and   -q - dq + 1 <= 0
	l := Local{Site: 0, Constraints: []Constraint{
		cons(lia.LE, -66, "q", 1, "dq", 1),
		cons(lia.LE, 1, "q", -1, "dq", -1),
	}}
	c, err := Compile(l)
	if err != nil {
		t.Fatal(err)
	}
	if !c.interval {
		t.Fatalf("expected interval fast path, got %+v", c)
	}
	if c.lo != 1 || c.hi != 66 {
		t.Fatalf("interval = [%d, %d], want [1, 66]", c.lo, c.hi)
	}
	for _, tc := range []struct {
		q, dq int64
		want  bool
	}{
		{0, 0, false}, {1, 0, true}, {60, 6, true}, {60, 7, false}, {70, -4, true},
	} {
		db := lang.Database{"q": tc.q, "dq": tc.dq}
		if got := c.Holds(db); got != tc.want {
			t.Errorf("Holds(q=%d, dq=%d) = %v, want %v", tc.q, tc.dq, got, tc.want)
		}
	}
}

// TestCompileEqualityPin checks that EQ constraints pin the sum.
func TestCompileEqualityPin(t *testing.T) {
	// unful - 3 = 0.
	l := Local{Site: 1, Constraints: []Constraint{
		cons(lia.EQ, -3, "unful", 1),
	}}
	c, err := Compile(l)
	if err != nil {
		t.Fatal(err)
	}
	if !c.interval || c.lo != 3 || c.hi != 3 {
		t.Fatalf("compiled = %+v, want interval [3, 3]", c)
	}
	if !c.Holds(lang.Database{"unful": 3}) || c.Holds(lang.Database{"unful": 2}) {
		t.Fatal("equality pin misevaluated")
	}
}

// TestCompileRejectsNonCanonical: Compile is where a hand-built, peer-sent
// or log-read treaty is held to the canonical form — terms out of order, a
// repeated object or a zero coefficient must surface as a compile error,
// not as a wrong check later (the interval detection compares term lists
// position by position).
func TestCompileRejectsNonCanonical(t *testing.T) {
	for name, terms := range map[string][]Term{
		"descending": {{"b", 1}, {"a", 1}},
		"repeated":   {{"a", 1}, {"a", 2}},
		"zero":       {{"a", 1}, {"b", 0}},
	} {
		l := Local{Site: 0, Constraints: []Constraint{{Terms: terms, Op: lia.LE}}}
		if _, err := Compile(l); err == nil {
			t.Errorf("Compile accepted a %s term list: %s", name, l)
		}
	}
}

// TestCompileValidatesPastGroundFalse: an unsatisfiable ground
// constraint must not short-circuit validation of later constraints — a
// malformed treaty has to surface as a compile error, never as
// perpetual violations.
func TestCompileValidatesPastGroundFalse(t *testing.T) {
	l := Local{Site: 0, Constraints: []Constraint{
		cons(lia.LE, 1), // ground false: 1 <= 0
		{Terms: []Term{{"b", 1}, {"a", 1}}, Op: lia.LE},
	}}
	if _, err := Compile(l); err == nil {
		t.Fatal("Compile accepted a malformed constraint hidden behind a ground-false one")
	}
}

// TestCompileExtremeBoundsSaturate: bound adjustments at the int64
// limits must saturate (vacuous or unsatisfiable), never wrap around and
// erase a constraint.
func TestCompileExtremeBoundsSaturate(t *testing.T) {
	// -s + MaxInt64 < 0, i.e. s > MaxInt64: unsatisfiable over int64.
	unsat := Local{Site: 0, Constraints: []Constraint{
		cons(lia.LT, math.MaxInt64, "s", -1),
	}}
	c, err := Compile(unsat)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{-5, 0, 5, math.MaxInt64} {
		if c.Holds(lang.Database{"s": v}) {
			t.Fatalf("s > MaxInt64 held for s = %d", v)
		}
	}
	// s + MinInt64 <= 0, i.e. s <= 2^63: vacuously true over int64.
	vacuous := Local{Site: 0, Constraints: []Constraint{
		cons(lia.LE, math.MinInt64, "s", 1),
	}}
	c, err = Compile(vacuous)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{math.MinInt64, 0, math.MaxInt64} {
		if !c.Holds(lang.Database{"s": v}) {
			t.Fatalf("s <= 2^63 did not hold for s = %d", v)
		}
	}
}

// TestCompileGroundConstraints: constant constraints fold at compile time.
func TestCompileGroundConstraints(t *testing.T) {
	sat := Local{Site: 0, Constraints: []Constraint{cons(lia.LE, -1)}} // -1 <= 0
	c, err := Compile(sat)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Holds(lang.Database{}) {
		t.Fatal("satisfiable ground treaty evaluated false")
	}
	unsat := Local{Site: 0, Constraints: []Constraint{cons(lia.LE, 1)}} // 1 <= 0
	c, err = Compile(unsat)
	if err != nil {
		t.Fatal(err)
	}
	if c.Holds(lang.Database{}) {
		t.Fatal("unsatisfiable ground treaty evaluated true")
	}
}

// TestCompileMatchesInterpreterRandomized cross-checks the compiled
// evaluator against the reference's interpreted Holds and its compiled one
// on random constraint systems (both interval-shaped and general).
func TestCompileMatchesInterpreterRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	objs := []string{"a", "b", "c", "d"}
	ops := []lia.RelOp{lia.LE, lia.LT, lia.EQ}
	for iter := 0; iter < 2000; iter++ {
		nc := 1 + rng.Intn(4)
		l := Local{Site: rng.Intn(3)}
		for j := 0; j < nc; j++ {
			term := lia.NewTerm()
			term.Const = int64(rng.Intn(21) - 10)
			for _, o := range objs {
				if rng.Intn(2) == 0 {
					term.AddVar(logic.Obj(lang.ObjID(o)), int64(rng.Intn(7)-3))
				}
			}
			l.Constraints = append(l.Constraints, flat(lia.Constraint{Term: term, Op: ops[rng.Intn(len(ops))]}))
		}
		c, err := Compile(l)
		if err != nil {
			t.Fatal(err)
		}
		ref := refOf(l)
		rc, err := refCompile(ref)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 8; probe++ {
			db := lang.Database{}
			for _, o := range objs {
				db[lang.ObjID(o)] = int64(rng.Intn(31) - 15)
			}
			if got, want := c.Holds(db), ref.Holds(db); got != want || rc.Holds(db) != want {
				t.Fatalf("iter %d: compiled %v, interpreted %v, reference compiled %v for %s on %v",
					iter, got, want, rc.Holds(db), l, db)
			}
		}
	}
}

// microLocal is a realistic site-0 local treaty from the microbenchmark:
// bounds on the logical stock value q + dq_0.
func microLocal() Local {
	return Local{Site: 0, Constraints: []Constraint{
		cons(lia.LE, -66, "stock[17]", 1, "stock[17]@d0", 1),
		cons(lia.LE, 1, "stock[17]", -1, "stock[17]@d0", -1),
	}}
}

// TestCompileAllocatesNothing: compiling aliases the Local — no copy, no
// sort — so a demarcation-shaped treaty, and a general one, cost nothing.
func TestCompileAllocatesNothing(t *testing.T) {
	general := Local{Site: 0, Constraints: []Constraint{
		cons(lia.LE, -9, "a", 1, "b", 3), cons(lia.LT, 5, "a@d0", -1, "b@d0", -2), cons(lia.LE, -1),
	}}
	for _, l := range []Local{microLocal(), general} {
		var c CompiledLocal
		if n := testing.AllocsPerRun(100, func() { c, _ = Compile(l) }); n != 0 {
			t.Errorf("Compile(%s) allocates %v times", l, n)
		}
		benchSink = c.Holds(lang.Database{})
	}
}

var benchSink bool

// BenchmarkLocalHoldsInterpreted measures the seed's per-commit check:
// interpret the lia.Constraint trees through a Binding closure.
func BenchmarkLocalHoldsInterpreted(b *testing.B) {
	l := refOf(microLocal())
	db := lang.Database{"stock[17]": 60, "stock[17]@d0": -3}
	bind := func(v logic.Var) (int64, bool) {
		return db.Get(lang.ObjID(v.Name)), true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok := true
		for _, c := range l.Constraints {
			holds, err := c.Eval(bind)
			if err != nil || !holds {
				ok = false
				break
			}
		}
		benchSink = ok
	}
}

// BenchmarkLocalHoldsCompiled measures the compiled per-commit check.
func BenchmarkLocalHoldsCompiled(b *testing.B) {
	c, err := Compile(microLocal())
	if err != nil {
		b.Fatal(err)
	}
	db := lang.Database{"stock[17]": 60, "stock[17]@d0": -3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = c.Holds(db)
	}
}
