package lia

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lang"
	"repro/internal/logic"
)

func c(term Term, op RelOp) Constraint { return Constraint{Term: term, Op: op} }

func term(consts int64, pairs ...any) Term {
	t := NewTerm()
	t.Const = consts
	for i := 0; i < len(pairs); i += 2 {
		t.AddVar(pairs[i].(logic.Var), int64(pairs[i+1].(int)))
	}
	return t
}

var (
	vx = logic.Obj("x")
	vy = logic.Obj("y")
	vz = logic.Obj("z")
	rx = lang.Read{Obj: "x"}
	ry = lang.Read{Obj: "y"}
)

func lit(v int64) lang.Expr        { return lang.IntLit{Value: v} }
func add(l, r lang.Expr) lang.Expr { return lang.Bin{Op: lang.OpAdd, L: l, R: r} }
func sub(l, r lang.Expr) lang.Expr { return lang.Bin{Op: lang.OpSub, L: l, R: r} }
func mul(l, r lang.Expr) lang.Expr { return lang.Bin{Op: lang.OpMul, L: l, R: r} }

func TestLinearizeBasic(t *testing.T) {
	// 2*x + 3 - (y - x) = 3x - y + 3
	e := sub(add(mul(lit(2), rx), lit(3)), sub(ry, rx))
	lt, err := Linearize(e)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Coeffs[vx] != 3 || lt.Coeffs[vy] != -1 || lt.Const != 3 {
		t.Fatalf("linearized = %v", lt)
	}
}

func TestLinearizeNonLinear(t *testing.T) {
	e := mul(rx, ry)
	if _, err := Linearize(e); err != ErrNonLinear {
		t.Fatalf("err = %v, want ErrNonLinear", err)
	}
	// Constant * variable is fine even nested.
	e2 := mul(sub(lit(5), lit(2)), rx)
	lt, err := Linearize(e2)
	if err != nil || lt.Coeffs[vx] != 3 {
		t.Fatalf("got %v, %v", lt, err)
	}
}

// TestLinearizeKinds: a read is an object variable, a parameter a
// parameter variable, a temporary a temporary one.
func TestLinearizeKinds(t *testing.T) {
	e := add(add(rx, lang.Param{Name: "p"}), lang.TempVar{Name: "t"})
	lt, err := Linearize(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.Coeffs) != 3 || lt.Coeffs[vx] != 1 || lt.Coeffs[logic.Param("p")] != 1 || lt.Coeffs[logic.Temp("t")] != 1 {
		t.Fatalf("linearized = %v", lt)
	}
}

// TestLinearizeRange: a coefficient or constant that leaves int64 is
// ErrRange, not a wrapped number.
func TestLinearizeRange(t *testing.T) {
	for _, e := range []lang.Expr{
		add(lit(math.MaxInt64), lit(1)),
		sub(rx, lit(math.MinInt64)),
		mul(lit(2), mul(rx, lit(1<<62))),
		lang.Neg{E: mul(rx, lit(math.MinInt64))},
		add(mul(rx, lit(math.MaxInt64)), rx),
	} {
		if lt, err := Linearize(e); err != ErrRange {
			t.Errorf("Linearize(%s) = %v, %v, want ErrRange", e, lt, err)
		}
	}
	if _, err := AtomConstraints(lang.CmpGT, rx, lit(math.MinInt64)); err != ErrRange {
		t.Errorf("x > -2^63: %v, want ErrRange", err)
	}
	lt, err := Linearize(add(mul(rx, lit(math.MaxInt64)), lit(math.MinInt64)))
	if err != nil || lt.Coeffs[vx] != math.MaxInt64 || lt.Const != math.MinInt64 {
		t.Fatalf("the edges themselves: %v, %v", lt, err)
	}
}

// TestTermEvalOverflow: a term whose value leaves int64 is ErrRange, and
// one whose value fits is that value, whatever its summands do on the way.
func TestTermEvalOverflow(t *testing.T) {
	b := logic.DBBinding(lang.Database{"x": math.MaxInt64, "y": math.MaxInt64, "z": math.MinInt64}, nil, nil)
	for _, tc := range []struct {
		t    Term
		want int64
		err  error
	}{
		{term(-10, vx, 1, vy, 1), 0, ErrRange},
		{term(0, vx, 2), 0, ErrRange},
		{term(-10, vx, 1, vy, -1), -10, nil},
		{term(math.MinInt64, vz, -1), 0, nil},
		{term(1, vx, 1, vz, 1), 0, nil},
		{term(0, vz, 2, vx, 2), -2, nil},
	} {
		if v, err := tc.t.Eval(b); v != tc.want || err != tc.err {
			t.Errorf("%s = %d, %v, want %d, %v", tc.t, v, err, tc.want, tc.err)
		}
	}
}

func TestTermCancellation(t *testing.T) {
	tm := NewTerm()
	tm.AddVar(vx, 5)
	tm.AddVar(vx, -5)
	if !tm.IsConst() {
		t.Fatalf("term should be constant after cancellation: %v", tm)
	}
}

func TestAtomConstraintsAllOps(t *testing.T) {
	x := rx
	ten := lit(10)
	check := func(op lang.CmpOp, val int64, want bool) {
		cs, err := AtomConstraints(op, x, ten)
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		b := logic.DBBinding(lang.Database{"x": val}, nil, nil)
		for _, cc := range cs {
			got, err := cc.Eval(b)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("op %v at x=%d: got %v, want %v (%v)", op, val, got, want, cc)
			}
		}
	}
	check(lang.CmpLT, 9, true)
	check(lang.CmpLT, 10, false)
	check(lang.CmpLE, 10, true)
	check(lang.CmpLE, 11, false)
	check(lang.CmpEQ, 10, true)
	check(lang.CmpEQ, 9, false)
	check(lang.CmpGT, 11, true)
	check(lang.CmpGT, 10, false)
	check(lang.CmpGE, 10, true)
	check(lang.CmpGE, 9, false)
	if _, err := AtomConstraints(lang.CmpNE, x, ten); err != ErrDisjunctive {
		t.Fatalf("NE should be ErrDisjunctive, got %v", err)
	}
}

func TestFeasibleSimple(t *testing.T) {
	// x <= 5 && x >= 3: feasible.
	cs := []Constraint{
		c(term(-5, vx, 1), LE), // x - 5 <= 0
		c(term(3, vx, -1), LE), // 3 - x <= 0
	}
	if !Feasible(cs) {
		t.Fatal("3 <= x <= 5 should be feasible")
	}
	// x <= 2 && x >= 3: infeasible.
	cs2 := []Constraint{
		c(term(-2, vx, 1), LE),
		c(term(3, vx, -1), LE),
	}
	if Feasible(cs2) {
		t.Fatal("3 <= x <= 2 should be infeasible")
	}
}

func TestFeasibleStrict(t *testing.T) {
	// x < 3 && x > 2 is rationally feasible (x = 2.5): the relaxation
	// accepts it, documenting the known incompleteness for integers.
	cs := []Constraint{
		c(term(-3, vx, 1), LT), // x - 3 < 0
		c(term(2, vx, -1), LT), // 2 - x < 0
	}
	if !Feasible(cs) {
		t.Fatal("rational relaxation should accept 2 < x < 3")
	}
	// x < 3 && x > 3 is infeasible even rationally.
	cs2 := []Constraint{
		c(term(-3, vx, 1), LT),
		c(term(3, vx, -1), LT),
	}
	if Feasible(cs2) {
		t.Fatal("x<3 && x>3 should be infeasible")
	}
}

func TestFeasibleEqualityPivot(t *testing.T) {
	// x + y = 10 && x >= 8 && y >= 3: infeasible.
	cs := []Constraint{
		c(term(-10, vx, 1, vy, 1), EQ),
		c(term(8, vx, -1), LE),
		c(term(3, vy, -1), LE),
	}
	if Feasible(cs) {
		t.Fatal("x+y=10, x>=8, y>=3 should be infeasible")
	}
	// Relax y >= 2: feasible (x=8, y=2).
	cs2 := []Constraint{
		c(term(-10, vx, 1, vy, 1), EQ),
		c(term(8, vx, -1), LE),
		c(term(2, vy, -1), LE),
	}
	if !Feasible(cs2) {
		t.Fatal("x+y=10, x>=8, y>=2 should be feasible")
	}
}

func TestFeasibleThreeVarChain(t *testing.T) {
	// x <= y && y <= z && z <= x - 1: infeasible cycle.
	cs := []Constraint{
		c(term(0, vx, 1, vy, -1), LE),
		c(term(0, vy, 1, vz, -1), LE),
		c(term(1, vz, 1, vx, -1), LE),
	}
	if Feasible(cs) {
		t.Fatal("cyclic chain with slack -1 should be infeasible")
	}
	// Without the -1 it is feasible (all equal).
	cs2 := []Constraint{
		c(term(0, vx, 1, vy, -1), LE),
		c(term(0, vy, 1, vz, -1), LE),
		c(term(0, vz, 1, vx, -1), LE),
	}
	if !Feasible(cs2) {
		t.Fatal("x<=y<=z<=x should be feasible")
	}
}

func TestFeasibleContradictoryEqualities(t *testing.T) {
	cs := []Constraint{
		c(term(-5, vx, 1), EQ), // x = 5
		c(term(-6, vx, 1), EQ), // x = 6
	}
	if Feasible(cs) {
		t.Fatal("x=5 && x=6 should be infeasible")
	}
}

func TestImplies(t *testing.T) {
	// x >= 5 implies x >= 3.
	prem := []Constraint{c(term(5, vx, -1), LE)}
	concl := c(term(3, vx, -1), LE)
	if !implies(prem, concl) {
		t.Fatal("x>=5 should imply x>=3")
	}
	// x >= 3 does not imply x >= 5.
	if implies([]Constraint{c(term(3, vx, -1), LE)}, c(term(5, vx, -1), LE)) {
		t.Fatal("x>=3 should not imply x>=5")
	}
	// x = 4 implies x >= 4 and x <= 4.
	eq := []Constraint{c(term(-4, vx, 1), EQ)}
	if !implies(eq, c(term(4, vx, -1), LE)) || !implies(eq, c(term(-4, vx, 1), LE)) {
		t.Fatal("x=4 should imply both inequalities")
	}
	// x >= 4 && x <= 4 implies x = 4 (equality conclusion).
	both := []Constraint{c(term(4, vx, -1), LE), c(term(-4, vx, 1), LE)}
	if !implies(both, c(term(-4, vx, 1), EQ)) {
		t.Fatal("4<=x<=4 should imply x=4")
	}
}

// TestImpliesH1Shape mirrors the paper's running example: local treaties
// x >= 20 - cy and y >= 20 - cx with cx + cy <= 20 must imply the global
// treaty x + y >= 20 (Section 4.2).
func TestImpliesH1Shape(t *testing.T) {
	cy, cx := int64(12), int64(8)
	prem := []Constraint{
		c(term(20-cy, vx, -1), LE), // 20 - cy - x <= 0, i.e. x >= 20-cy
		c(term(20-cx, vy, -1), LE),
	}
	global := c(term(20, vx, -1, vy, -1), LE) // 20 - x - y <= 0
	if !implies(prem, global) {
		t.Fatal("valid treaty configuration should imply global treaty")
	}
	// An invalid configuration (cx + cy > 20) must not imply it.
	cy, cx = 15, 8
	prem2 := []Constraint{
		c(term(20-cy, vx, -1), LE),
		c(term(20-cx, vy, -1), LE),
	}
	if implies(prem2, global) {
		t.Fatal("invalid configuration should not imply global treaty")
	}
}

// TestFormulaToConstraintsRoundTrip: the canonical constraints of a
// conjunction hold at exactly the points where the formula does.
func TestFormulaToConstraintsRoundTrip(t *testing.T) {
	f := lang.And{
		L: lang.Cmp{Op: lang.CmpGE, L: add(rx, ry), R: lit(20)},
		R: lang.Cmp{Op: lang.CmpLT, L: rx, R: lit(100)},
	}
	cs, err := FormulaToConstraints(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("got %d constraints", len(cs))
	}
	// Check semantic agreement on a grid of points.
	for x := int64(-5); x <= 110; x += 5 {
		for y := int64(-5); y <= 30; y += 5 {
			b := logic.DBBinding(lang.Database{"x": x, "y": y}, nil, nil)
			want, err := lang.EvalBool(f, &lang.Env{DB: lang.Database{"x": x, "y": y}})
			if err != nil {
				t.Fatal(err)
			}
			got := true
			for _, c := range cs {
				holds, err := c.Eval(b)
				if err != nil {
					t.Fatal(err)
				}
				got = got && holds
			}
			if got != want {
				t.Fatalf("round trip disagrees at (%d,%d): %v vs %v", x, y, got, want)
			}
		}
	}
}

// Property: if a random integer point satisfies all constraints, Feasible
// must return true (soundness of the relaxation in the satisfiable
// direction).
func TestFeasibleSoundOnModels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		// Random point.
		px, py, pz := int64(rng.Intn(41)-20), int64(rng.Intn(41)-20), int64(rng.Intn(41)-20)
		bind := func(v logic.Var) (int64, bool) {
			switch v {
			case vx:
				return px, true
			case vy:
				return py, true
			case vz:
				return pz, true
			}
			return 0, false
		}
		// Random constraints that the point satisfies (generate then adjust
		// the constant so it holds).
		var cs []Constraint
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			tm := NewTerm()
			for _, v := range []logic.Var{vx, vy, vz} {
				if rng.Intn(2) == 0 {
					tm.AddVar(v, int64(rng.Intn(7)-3))
				}
			}
			val, _ := tm.Eval(bind)
			op := []RelOp{LE, LT, EQ}[rng.Intn(3)]
			switch op {
			case LE:
				tm.Const -= val // now evaluates to 0 <= 0
			case LT:
				tm.Const -= val + 1 // now evaluates to -1 < 0
			case EQ:
				tm.Const -= val
			}
			cs = append(cs, Constraint{Term: tm, Op: op})
		}
		return Feasible(cs)
	}
	wrapped := func(uint8) bool { return f() }
	if err := quick.Check(wrapped, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, fl, ce int64 }{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{7, -2, -4, -3},
		{-7, -2, 3, 4},
		{6, 3, 2, 2},
		{0, 5, 0, 0},
	}
	for _, tc := range cases {
		if got := floorDiv(tc.a, tc.b); got != tc.fl {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.fl)
		}
		if got := ceilDiv(tc.a, tc.b); got != tc.ce {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.ce)
		}
	}
}

// TestConstraintStringStable: a constraint renders its terms in variable
// order, whatever order its coefficient map iterates in.
func TestConstraintStringStable(t *testing.T) {
	cst := c(term(-5, vz, 3, vx, 1, vy, -2), LE)
	for i := 0; i < 20; i++ {
		if got, want := cst.Clone().String(), "x + -2*y + 3*z + -5 <= 0"; got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}
