package logic_test

import (
	"math"
	"testing"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
)

// Guards are L's boolean expressions; these tests hold lang.FoldBool, the
// fold symtab.Prune runs on them, to the ground folding a guard needs, and
// lia and logic.DBBinding to the variables this package names.

func lit(v int64) lang.Expr                      { return lang.IntLit{Value: v} }
func cmp(op lang.CmpOp, l, r lang.Expr) lang.Cmp { return lang.Cmp{Op: op, L: l, R: r} }
func bin(op lang.BinOp, l, r lang.Expr) lang.Expr {
	return lang.Bin{Op: op, L: l, R: r}
}

var x = lang.Read{Obj: "x"}

func TestFoldGroundAtoms(t *testing.T) {
	cases := []struct {
		b    lang.BoolExpr
		want string
	}{
		{cmp(lang.CmpEQ, lit(2), lit(2)), "true"},
		{cmp(lang.CmpEQ, lit(2), lit(3)), "false"},
		{cmp(lang.CmpLT, lit(2), lit(3)), "true"},
		{cmp(lang.CmpNE, lit(2), lit(2)), "false"},
	}
	for _, tc := range cases {
		if got := lang.FoldBool(tc.b).String(); got != tc.want {
			t.Errorf("FoldBool(%s) = %s, want %s", tc.b, got, tc.want)
		}
	}
}

func TestFoldArithmetic(t *testing.T) {
	// (2 + 3) * 2 - 1 = 9  =>  "9 < 10" folds to true.
	e := bin(lang.OpSub, bin(lang.OpMul, bin(lang.OpAdd, lit(2), lit(3)), lit(2)), lit(1))
	if f := lang.FoldBool(cmp(lang.CmpLT, e, lit(10))); f != (lang.BoolLit{Value: true}) {
		t.Fatalf("FoldBool = %s, want true", f)
	}
	// Negation folds too.
	if n := lang.FoldBool(cmp(lang.CmpEQ, lang.Neg{E: lit(4)}, lit(-4))); n != (lang.BoolLit{Value: true}) {
		t.Fatalf("FoldBool(neg) = %s", n)
	}
	// Ground arithmetic inside a live comparison folds to its value.
	if f := lang.FoldBool(cmp(lang.CmpLE, x, bin(lang.OpMul, lit(2), lit(3)))).String(); f != "read(x) <= 6" {
		t.Fatalf("FoldBool = %s, want read(x) <= 6", f)
	}
	// A step that leaves int64 is not folded: the comparison stays, and
	// evaluating it fails as L does.
	over := cmp(lang.CmpGT, bin(lang.OpAdd, lit(math.MaxInt64), lit(1)), lit(0))
	if f := lang.FoldBool(over); f != over {
		t.Fatalf("FoldBool(%s) = %s, want it unchanged", over, f)
	}
	neg := cmp(lang.CmpLT, lang.Neg{E: lit(math.MinInt64)}, lit(0))
	if f := lang.FoldBool(neg); f != neg {
		t.Fatalf("FoldBool(%s) = %s, want it unchanged", neg, f)
	}
}

func TestFoldCollapsesConnectives(t *testing.T) {
	live := cmp(lang.CmpLT, x, lit(5))
	// (0 = 1) && (x < 5) folds to false.
	if f := lang.FoldBool(lang.And{L: cmp(lang.CmpEQ, lit(0), lit(1)), R: live}); f != (lang.BoolLit{Value: false}) {
		t.Fatalf("FoldBool(and) = %s, want false", f)
	}
	// (0 = 0) && (x < 5) folds to x < 5.
	if f := lang.FoldBool(lang.And{L: cmp(lang.CmpEQ, lit(0), lit(0)), R: live}); f != lang.BoolExpr(live) {
		t.Fatalf("FoldBool(and-true) = %s, want the live comparison", f)
	}
	// (1 = 1) || (x < 5) folds to true.
	if f := lang.FoldBool(lang.Or{L: cmp(lang.CmpEQ, lit(1), lit(1)), R: live}); f != (lang.BoolLit{Value: true}) {
		t.Fatalf("FoldBool(or) = %s, want true", f)
	}
	// !(0 = 1) folds to true.
	if f := lang.FoldBool(lang.Not{B: cmp(lang.CmpEQ, lit(0), lit(1))}); f != (lang.BoolLit{Value: true}) {
		t.Fatalf("FoldBool(not) = %s, want true", f)
	}
	// (x < 5) && (0 = 1) folds to false, but (x + 1 < 5) && (0 = 1) does
	// not: L evaluates x + 1 first, and it can leave int64.
	if f := lang.FoldBool(lang.And{L: live, R: cmp(lang.CmpEQ, lit(0), lit(1))}); f != (lang.BoolLit{Value: false}) {
		t.Fatalf("FoldBool(and-false) = %s, want false", f)
	}
	risky := cmp(lang.CmpLT, bin(lang.OpAdd, x, lit(1)), lit(5))
	if f := lang.FoldBool(lang.And{L: risky, R: cmp(lang.CmpEQ, lit(0), lit(1))}).String(); f != "read(x) + 1 < 5 && false" {
		t.Fatalf("FoldBool(risky-and-false) = %s", f)
	}
}

func TestFoldPreservesSemantics(t *testing.T) {
	b := lang.Conj(
		lang.Or{L: cmp(lang.CmpGE, x, lit(0)),
			R: cmp(lang.CmpLT, bin(lang.OpAdd, lit(1), lit(1)), lit(1))},
		lang.Not{B: cmp(lang.CmpEQ, x, lit(7))},
	)
	folded := lang.FoldBool(b)
	for xv := int64(-3); xv <= 10; xv++ {
		env := &lang.Env{DB: lang.Database{"x": xv}}
		want, err := lang.EvalBool(b, env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lang.EvalBool(folded, env)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("x=%d: folded %v, original %v", xv, got, want)
		}
	}
}

func TestStringRenderers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{logic.Obj("x").String(), "x"},
		{logic.Param("p").String(), "$p"},
		{logic.Temp("t").String(), "^t"},
		{logic.Config("c").String(), "#c"},
		{logic.ObjVar.String(), "obj"},
		{logic.ParamVar.String(), "param"},
		{logic.TempVar.String(), "temp"},
		{logic.ConfigVar.String(), "config"},
		// A guard prints as L source: conjuncts in order, a right-nested
		// conjunction parenthesized so that it parses back to itself.
		{lang.Conj(cmp(lang.CmpGT, lang.Param{Name: "v"}, lang.Read{Obj: "top2"}),
			lang.Conj(cmp(lang.CmpGT, lang.Param{Name: "v"}, x), cmp(lang.CmpLE, x, lit(1)))).String(),
			"v > read(top2) && (v > read(x) && read(x) <= 1)"},
		{lang.Negate(lang.Conj(cmp(lang.CmpLT, x, lit(1)), cmp(lang.CmpLT, lit(1), x))).String(),
			"!(read(x) < 1 && 1 < read(x))"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
}

func TestEvalFormulaErrorPaths(t *testing.T) {
	unbound := cmp(lang.CmpLT, lang.TempVar{Name: "ghost"}, lit(1))
	env := &lang.Env{DB: lang.Database{}}
	for _, b := range []lang.BoolExpr{
		unbound,
		lang.And{L: unbound, R: lang.BoolLit{Value: true}},
		lang.Or{L: unbound, R: lang.BoolLit{Value: false}},
		lang.Not{B: unbound},
	} {
		if _, err := lang.EvalBool(b, env); err == nil {
			t.Errorf("EvalBool(%s) should fail on unbound temp", b)
		}
	}
}

func TestFromLangExprErrors(t *testing.T) {
	ar := lang.ArrayRead{Array: "a", Index: lit(0)}
	if _, err := lia.Linearize(ar); err == nil {
		t.Fatal("ArrayRead must be rejected (lower first)")
	}
	if _, err := lia.Linearize(bin(lang.OpAdd, ar, lit(1))); err == nil {
		t.Fatal("nested ArrayRead must be rejected")
	}
	if _, err := lia.FormulaToConstraints(cmp(lang.CmpEQ, ar, lit(1))); err == nil {
		t.Fatal("ArrayRead in comparison must be rejected")
	}
}

func TestConfigBindingAndSubstKinds(t *testing.T) {
	b := logic.DBBinding(lang.Database{"x": 3}, map[string]int64{"p": 4}, map[string]int64{"c": 5})
	sum := lia.NewTerm()
	for _, v := range []logic.Var{logic.Obj("x"), logic.Param("p"), logic.Config("c")} {
		sum.AddVar(v, 1)
	}
	v, err := sum.Eval(b)
	if err != nil || v != 12 {
		t.Fatalf("v = %d, err = %v", v, err)
	}
	// Substitution through every expression constructor:
	// -x * (x - 1) with x := 10 is -90.
	e := bin(lang.OpMul, lang.Neg{E: x}, bin(lang.OpSub, x, lit(1)))
	out := lang.SubstBool(cmp(lang.CmpEQ, e, lit(-90)), x, lit(10))
	if ok, err := lang.EvalBool(out, &lang.Env{}); err != nil || !ok {
		t.Fatalf("%s: %v, err = %v", out, ok, err)
	}
}
