package lang

import (
	"strings"
	"testing"
)

func TestASTStringRenderers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{IntLit{Value: 5}.String(), "5"},
		{Param{Name: "p"}.String(), "p"},
		{TempVar{Name: "t"}.String(), "t"},
		{Read{Obj: "x"}.String(), "read(x)"},
		{ArrayRead{Array: "a", Index: IntLit{Value: 2}}.String(), "a(2)"},
		{Neg{E: IntLit{Value: 3}}.String(), "-3"},
		{Bin{Op: OpAdd, L: IntLit{Value: 1}, R: IntLit{Value: 2}}.String(), "1 + 2"},
		{Bin{Op: OpSub, L: IntLit{Value: 1}, R: IntLit{Value: 2}}.String(), "1 - 2"},
		{Bin{Op: OpMul, L: IntLit{Value: 1}, R: IntLit{Value: 2}}.String(), "1 * 2"},
		{BoolLit{Value: true}.String(), "true"},
		{BoolLit{Value: false}.String(), "false"},
		{Cmp{Op: CmpLE, L: IntLit{Value: 1}, R: IntLit{Value: 2}}.String(), "1 <= 2"},
		{And{L: BoolLit{Value: true}, R: BoolLit{Value: false}}.String(), "true && false"},
		{Or{L: BoolLit{Value: true}, R: BoolLit{Value: false}}.String(), "true || false"},
		{Not{B: BoolLit{Value: true}}.String(), "!true"},
		{Skip{}.String(), "skip"},
		{Assign{Var: "t", E: IntLit{Value: 1}}.String(), "t := 1"},
		{WriteCmd{Obj: "x", E: IntLit{Value: 1}}.String(), "write(x = 1)"},
		{ArrayWrite{Array: "a", Index: IntLit{Value: 0}, E: IntLit{Value: 1}}.String(), "write(a(0) = 1)"},
		{PrintCmd{E: IntLit{Value: 1}}.String(), "print(1)"},
		{Seq{First: Skip{}, Rest: Skip{}}.String(), "skip; skip"},
		// Parentheses and braces only where the shape needs them.
		{Bin{Op: OpSub, L: Bin{Op: OpSub, L: IntLit{Value: 1}, R: IntLit{Value: 2}}, R: Bin{Op: OpAdd, L: IntLit{Value: 3}, R: IntLit{Value: 4}}}.String(), "1 - 2 - (3 + 4)"},
		{Bin{Op: OpMul, L: Bin{Op: OpAdd, L: IntLit{Value: 1}, R: IntLit{Value: 2}}, R: Neg{E: Neg{E: IntLit{Value: 3}}}}.String(), "(1 + 2) * --3"},
		{Neg{E: Bin{Op: OpMul, L: IntLit{Value: 1}, R: IntLit{Value: 2}}}.String(), "-(1 * 2)"},
		{Not{B: Or{L: BoolLit{Value: true}, R: And{L: BoolLit{Value: false}, R: BoolLit{Value: true}}}}.String(), "!(true || false && true)"},
		{And{L: Or{L: BoolLit{Value: true}, R: BoolLit{Value: false}}, R: Not{B: Cmp{Op: CmpLT, L: IntLit{Value: 1}, R: IntLit{Value: 2}}}}.String(), "(true || false) && !1 < 2"},
		{If{Cond: BoolLit{Value: true}, Then: Seq{First: Skip{}, Rest: Skip{}}, Else: If{Cond: BoolLit{Value: false}, Then: Skip{}, Else: Skip{}}}.String(),
			"if true then { skip; skip } else if false then skip else skip"},
		{Seq{First: Seq{First: Skip{}, Rest: Skip{}}, Rest: Skip{}}.String(), "{ skip; skip }; skip"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
	ifStr := If{Cond: BoolLit{Value: true}, Then: Skip{}, Else: Skip{}}.String()
	if !strings.Contains(ifStr, "if") || !strings.Contains(ifStr, "else") {
		t.Errorf("If.String() = %q", ifStr)
	}
	txn := &Transaction{Name: "T", Params: []string{"a", "b"}, Body: Skip{}}
	if got := txn.String(); !strings.Contains(got, "T(a, b)") {
		t.Errorf("Transaction.String() = %q", got)
	}
}

func TestCmpOpHelpers(t *testing.T) {
	ops := []CmpOp{CmpLT, CmpEQ, CmpLE, CmpGT, CmpGE, CmpNE}
	for _, op := range ops {
		// Negate is an involution and complements Holds.
		for a := int64(-2); a <= 2; a++ {
			for b := int64(-2); b <= 2; b++ {
				if op.Holds(a, b) == op.Negate().Holds(a, b) {
					t.Fatalf("%v and its negation agree on (%d,%d)", op, a, b)
				}
			}
		}
		if op.Negate().Negate() != op {
			t.Fatalf("double negation of %v", op)
		}
		if op.String() == "?" {
			t.Fatalf("missing String for %v", op)
		}
	}
	for _, op := range []BinOp{OpAdd, OpMul, OpSub} {
		if op.String() == "?" {
			t.Fatalf("missing String for %v", op)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	bad := []string{
		"transaction T() { x : = 1 }",                     // lone colon
		"transaction T() { if (x & y) }",                  // lone ampersand
		"transaction T() { if (x | y) }",                  // lone pipe
		"transaction T() { print(99999999999999999999) }", // overflow
	}
	for _, src := range bad {
		if _, err := ParseTransaction(src); err == nil {
			t.Errorf("ParseTransaction(%q) succeeded, want lex error", src)
		}
	}
}

func TestParserMoreErrors(t *testing.T) {
	bad := []string{
		`transaction T() { write(a(0) = 1) }`,     // undeclared array write... parsed as array write without decl
		`transaction T() { array a(2) skip }`,     // missing semicolon
		`transaction T() { relation r(2); skip }`, // relation missing width
		`transaction T() { array a(-1); skip }`,   // non-positive bound
		`transaction T() { x := r(1, 2) }`,        // undeclared relation access
		`transaction T() { if (1 < 2) then }`,     // missing then-branch command
		`transaction T() `,                        // missing body
		`transaction T() { print(1) } garbage`,    // trailing tokens
		// past maxCells cells
		`transaction T(i) { array a(100000000); v := a(i) }`,
		`transaction T(i) { relation a(1024, 65); v := a(i, 0) }`,
		`transaction T() { relation a(2, 9223372036854775807); skip }`,
	}
	for _, src := range bad {
		if _, err := ParseTransaction(src); err == nil {
			t.Errorf("ParseTransaction(%q) succeeded, want error", src)
		}
	}
}

func TestEvalIn(t *testing.T) {
	txn := MustParse(`transaction T(d) { array a(2); write(a(0) = a(0) + d) }`)
	db := Database{ArrayObj("a", 0): 5}
	env := &Env{DB: db}
	if err := EvalIn(txn, env, 3); err != nil {
		t.Fatal(err)
	}
	if db.Get(ArrayObj("a", 0)) != 8 {
		t.Fatalf("a[0] = %d", db.Get(ArrayObj("a", 0)))
	}
	// Arity mismatch through EvalIn.
	if err := EvalIn(txn, &Env{DB: db}); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestEnvInterceptors(t *testing.T) {
	txn := MustParse(`transaction T() { v := read(x); write(y = v + 1) }`)
	reads := map[ObjID]int64{"x": 41}
	writes := map[ObjID]int64{}
	env := &Env{
		DB:      Database{},
		ReadFn:  func(obj ObjID) int64 { return reads[obj] },
		WriteFn: func(obj ObjID, v int64) { writes[obj] = v },
	}
	if err := EvalIn(txn, env); err != nil {
		t.Fatal(err)
	}
	if writes["y"] != 42 {
		t.Fatalf("intercepted write = %d", writes["y"])
	}
	if len(env.DB) != 0 {
		t.Fatal("interceptors must bypass the database")
	}
}

func TestSeqOfEdgeCases(t *testing.T) {
	if _, ok := SeqOf().(Skip); !ok {
		t.Fatal("empty SeqOf should be skip")
	}
	if _, ok := SeqOf(Skip{}, Skip{}).(Skip); !ok {
		t.Fatal("all-skip SeqOf should collapse")
	}
	single := SeqOf(PrintCmd{E: IntLit{Value: 1}})
	if _, ok := single.(PrintCmd); !ok {
		t.Fatal("single-command SeqOf should not wrap")
	}
	if got := len(Commands(SeqOf(Skip{}, PrintCmd{E: IntLit{Value: 1}}, Skip{}))); got != 1 {
		t.Fatalf("Commands = %d entries", got)
	}
}
