package logic_test

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
)

// TestFromLangExprAndEval: the term lia builds from an L expression, read
// through logic.DBBinding, has the value L gives the expression.
func TestFromLangExprAndEval(t *testing.T) {
	le := bin(lang.OpAdd, x, bin(lang.OpMul, lit(3), lang.Param{Name: "p"}))
	term, err := lia.Linearize(le)
	if err != nil {
		t.Fatalf("Linearize: %v", err)
	}
	db, params := lang.Database{"x": 7}, map[string]int64{"p": 5}
	v, err := term.Eval(logic.DBBinding(db, params, nil))
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	want, err := lang.EvalExpr(le, &lang.Env{DB: db, Params: params})
	if err != nil || v != want || v != 22 {
		t.Fatalf("term = %d, L = %d (%v), want 22", v, want, err)
	}
}

func TestSubstExpr(t *testing.T) {
	// (x + t) with t := x - 1 should evaluate as 2x - 1.
	tmp := lang.TempVar{Name: "t"}
	b := lang.SubstBool(cmp(lang.CmpEQ, bin(lang.OpAdd, x, tmp), lit(19)), tmp, bin(lang.OpSub, x, lit(1)))
	ok, err := lang.EvalBool(b, &lang.Env{DB: lang.Database{"x": 10}})
	if err != nil || !ok {
		t.Fatalf("%s at x = 10: %v, %v", b, ok, err)
	}
	// What does not mention the variable is shared, not copied.
	other := cmp(lang.CmpLT, x, lit(1))
	if got := lang.SubstBool(other, tmp, lit(0)); got != lang.BoolExpr(other) {
		t.Fatalf("SubstBool rebuilt %s", got)
	}
}

func TestFormulaConnectivesAndEval(t *testing.T) {
	y := lang.Read{Obj: "y"}
	// (x < 10 && !(y = 3)) || x >= 100
	b := lang.Or{
		L: lang.Conj(cmp(lang.CmpLT, x, lit(10)), lang.Negate(cmp(lang.CmpEQ, y, lit(3)))),
		R: cmp(lang.CmpGE, x, lit(100)),
	}
	cases := []struct {
		x, y int64
		want bool
	}{
		{5, 2, true},
		{5, 3, false},
		{50, 2, false},
		{150, 3, true},
	}
	for _, tc := range cases {
		got, err := lang.EvalBool(b, &lang.Env{DB: lang.Database{"x": tc.x, "y": tc.y}})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("x=%d y=%d: got %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestAndOrSimplification(t *testing.T) {
	a := cmp(lang.CmpLT, x, lit(1))
	tru, fls := lang.BoolLit{Value: true}, lang.BoolLit{Value: false}
	for _, tc := range []struct {
		name      string
		got, want lang.BoolExpr
	}{
		{"Conj(true, a)", lang.Conj(tru, a), a},
		{"Conj(a, true)", lang.Conj(a, tru), a},
		{"Conj(false, a)", lang.Conj(fls, a), fls},
		{"Conj(a, false)", lang.Conj(a, fls), fls},
		{"true || a", lang.FoldBool(lang.Or{L: tru, R: a}), tru},
		{"a || true", lang.FoldBool(lang.Or{L: a, R: tru}), tru},
		{"false || a", lang.FoldBool(lang.Or{L: fls, R: a}), a},
		{"a || false", lang.FoldBool(lang.Or{L: a, R: fls}), a},
		{"Conj(a, b)", lang.Conj(a, a), lang.And{L: a, R: a}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
	// An absorbing right side keeps a left side that can fail.
	risky := cmp(lang.CmpLT, bin(lang.OpMul, x, x), lit(1))
	if got := lang.Conj(risky, fls); got != (lang.And{L: risky, R: fls}) {
		t.Errorf("Conj(risky, false) = %s", got)
	}
	if got := lang.FoldBool(lang.Or{L: risky, R: tru}); got != (lang.Or{L: risky, R: tru}) {
		t.Errorf("risky || true folds to %s", got)
	}
}

func TestNotPushesThroughAtoms(t *testing.T) {
	a := cmp(lang.CmpLT, x, lit(5))
	n, ok := lang.Negate(a).(lang.Cmp)
	if !ok {
		t.Fatalf("Negate(cmp) = %T, want Cmp", lang.Negate(a))
	}
	if n.Op != lang.CmpGE {
		t.Fatalf("negated op = %v, want >=", n.Op)
	}
	// Double negation restores the relation.
	if nn, ok := lang.Negate(lang.Negate(a)).(lang.Cmp); !ok || nn.Op != lang.CmpLT {
		t.Fatal("double negation broken")
	}
	// A negated conjunction stays a negation, and negating it again gives
	// the conjunction back.
	both := lang.And{L: a, R: a}
	if got := lang.Negate(both); got != (lang.Not{B: both}) {
		t.Fatalf("Negate(and) = %s", got)
	}
	if got := lang.Negate(lang.Negate(both)); got != lang.BoolExpr(both) {
		t.Fatalf("Negate(Negate(and)) = %s", got)
	}
	if got := lang.Negate(lang.BoolLit{Value: true}); got != (lang.BoolLit{Value: false}) {
		t.Fatalf("Negate(true) = %s", got)
	}
}

func TestSubstFormulaMatchesFig6Example(t *testing.T) {
	// From Figure 7: guard (xh + yh < 10) after substituting yh := read(y)
	// then xh := read(x) should become x + y < 10.
	xh, yh := lang.TempVar{Name: "xh"}, lang.TempVar{Name: "yh"}
	guard := cmp(lang.CmpLT, bin(lang.OpAdd, xh, yh), lit(10))
	step1 := lang.SubstBool(guard, yh, lang.Read{Obj: "y"})
	step2 := lang.SubstBool(step1, xh, x)
	if got := step2.String(); got != "read(x) + read(y) < 10" {
		t.Fatalf("substituted guard = %s", got)
	}
	// No temporaries survive: the evaluations bind none.
	ok, err := lang.EvalBool(step2, &lang.Env{DB: lang.Database{"x": 4, "y": 5}})
	if err != nil || !ok {
		t.Fatalf("x+y<10 should hold on (4,5): %v %v", ok, err)
	}
	ok, err = lang.EvalBool(step2, &lang.Env{DB: lang.Database{"x": 6, "y": 5}})
	if err != nil || ok {
		t.Fatalf("x+y<10 should fail on (6,5): %v %v", ok, err)
	}
}

// TestFromLangBool: a condition becomes a guard through FoldBool, which
// pushes its negations into the comparisons.
func TestFromLangBool(t *testing.T) {
	lb := lang.And{
		L: cmp(lang.CmpLE, lang.Read{Obj: "a"}, lit(4)),
		R: lang.Not{B: cmp(lang.CmpEQ, lang.Read{Obj: "b"}, lit(0))},
	}
	g := lang.FoldBool(lb)
	if got := g.String(); got != "read(a) <= 4 && read(b) != 0" {
		t.Fatalf("guard = %s", got)
	}
	ok, err := lang.EvalBool(g, &lang.Env{DB: lang.Database{"a": 3, "b": 1}})
	if err != nil || !ok {
		t.Fatalf("guard should hold: %v %v", ok, err)
	}
	ok, _ = lang.EvalBool(g, &lang.Env{DB: lang.Database{"a": 3, "b": 0}})
	if ok {
		t.Fatal("guard should fail when b = 0")
	}
}

func TestConjuncts(t *testing.T) {
	a := cmp(lang.CmpLT, x, lit(1))
	b := cmp(lang.CmpGE, lang.Read{Obj: "y"}, lit(2))
	count := func(g lang.BoolExpr) (n int) {
		lang.Conjuncts(g, func(lang.BoolExpr) { n++ })
		return n
	}
	if n := count(lang.Conj(a, lang.Conj(b, a))); n != 3 {
		t.Fatalf("Conjuncts = %d parts, want 3", n)
	}
	if n := count(lang.BoolLit{Value: true}); n != 0 {
		t.Fatal("Conjuncts(true) should be empty")
	}
	if n := count(lang.BoolLit{Value: false}); n != 1 {
		t.Fatal("Conjuncts(false) should be false")
	}
	if n := count(a); n != 1 {
		t.Fatal("Conjuncts(cmp) should be the comparison")
	}
	if n := count(lang.Or{L: a, R: b}); n != 1 {
		t.Fatal("Conjuncts(or) should be the disjunction")
	}
}

func TestSortedVarsDeterminism(t *testing.T) {
	set := map[logic.Var]bool{
		logic.Obj("z"): true, logic.Obj("a"): true, logic.Param("p"): true, logic.Config("c"): true,
	}
	vs := logic.SortedVars(set)
	if len(vs) != 4 {
		t.Fatalf("len = %d", len(vs))
	}
	// Obj < Param < Config per kind ordering.
	if vs[0] != logic.Obj("a") || vs[1] != logic.Obj("z") || vs[2] != logic.Param("p") || vs[3] != logic.Config("c") {
		t.Fatalf("order = %v", vs)
	}
}

func TestEvalUnbound(t *testing.T) {
	if _, ok := logic.DBBinding(lang.Database{}, nil, nil)(logic.Temp("ghost")); ok {
		t.Fatal("DBBinding binds a temporary")
	}
	if _, err := lang.EvalExpr(lang.TempVar{Name: "ghost"}, &lang.Env{}); err == nil {
		t.Fatal("expected unbound-variable error")
	}
}
