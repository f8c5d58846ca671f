package lang

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestParserResolvesParameters: the header is read before the body, so the
// parser tells a parameter from a temporary where the name stands.
func TestParserResolvesParameters(t *testing.T) {
	txn := MustParse(`transaction T(n, m) { v := read(x); if (v - n > m) then write(x = v - n) else print(n + w) }`)
	want := SeqOf(
		Assign{Var: "v", E: Read{Obj: "x"}},
		If{
			Cond: Cmp{Op: CmpGT, L: Bin{Op: OpSub, L: TempVar{Name: "v"}, R: Param{Name: "n"}}, R: Param{Name: "m"}},
			Then: WriteCmd{Obj: "x", E: Bin{Op: OpSub, L: TempVar{Name: "v"}, R: Param{Name: "n"}}},
			Else: PrintCmd{E: Bin{Op: OpAdd, L: Param{Name: "n"}, R: TempVar{Name: "w"}}},
		})
	if !reflect.DeepEqual(txn.Body, want) {
		t.Fatalf("body\n got %#v\nwant %#v", txn.Body, want)
	}
	// Parameters are per transaction.
	ts := MustParseProgram(`transaction A(n) { print(n) } transaction B(m) { print(n) }`)
	if got := ts[1].Body; !reflect.DeepEqual(got, Cmd(PrintCmd{E: TempVar{Name: "n"}})) {
		t.Fatalf("n in B, which does not declare it: %#v", got)
	}
}

// TestParserRejectsParameterMisuse: an assignment to a parameter used to
// bind a temporary that no later read of the name saw, so the program that
// ran was not the program in the source, and a parameter declared twice
// was accepted. Both are errors, at the offending name.
func TestParserRejectsParameterMisuse(t *testing.T) {
	for src, want := range map[string]string{
		"transaction B(n) {\n v := read(y);\n n := v + 1;\n write(y = n); print(n) }": `lang: line 3: cannot assign to parameter "n" (at "n")`,
		"transaction C(n,\n n) { skip }":                                              `lang: line 2: duplicate parameter "n" (at "n")`,
		"transaction D(a, b, a) { skip }":                                             `lang: line 1: duplicate parameter "a" (at "a")`,
		"transaction E(p) { if (p > 0) then { p := 0 } else skip }":                   `lang: line 1: cannot assign to parameter "p" (at "p")`,
	} {
		_, err := ParseProgram(src)
		if err == nil || err.Error() != want {
			t.Errorf("ParseProgram(%q)\n error %v\n  want %s", src, err, want)
		}
	}
	// A temporary of another transaction's parameter name is one.
	if _, err := ParseProgram(`transaction A(n) { print(n) } transaction B() { n := 1; print(n) }`); err != nil {
		t.Errorf("assignment to n where it is no parameter: %v", err)
	}
}

// demoted is v with every Param node a TempVar again: what the parser
// built before it read parameter lists.
func demoted(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			return v
		}
		out := reflect.New(v.Type()).Elem()
		out.Set(demoted(v.Elem()))
		return out
	case reflect.Struct:
		if p, ok := v.Interface().(Param); ok {
			return reflect.ValueOf(TempVar{Name: p.Name})
		}
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(demoted(v.Field(i)))
		}
		return out
	}
	return v
}

// rightNested is c with every sequence flattened and nested to the right,
// as the parser builds the sequence it is printed as.
func rightNested(c Cmd) Cmd {
	switch n := c.(type) {
	case Seq:
		var flat []Cmd
		for _, part := range Commands(n) {
			flat = append(flat, rightNested(part))
		}
		return SeqOf(flat...)
	case If:
		return If{Cond: n.Cond, Then: rightNested(n.Then), Else: rightNested(n.Else)}
	}
	return c
}

// sourceOf prints t as a program the parser reads: Transaction.String
// leaves out the keyword and the array declarations.
func sourceOf(t *Transaction) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "transaction %s(%s) { ", t.Name, strings.Join(t.Params, ", "))
	for _, d := range t.Arrays {
		if d.Cols > 1 {
			fmt.Fprintf(&sb, "relation %s(%d, %d); ", d.Name, d.Len, d.Cols)
		} else {
			fmt.Fprintf(&sb, "array %s(%d); ", d.Name, d.Len)
		}
	}
	sb.WriteString(t.Body.String())
	sb.WriteString(" }")
	return sb.String()
}

var parseSeeds = []string{
	``, `transaction`, `transaction T`, `transaction T(`, `transaction T() {`, `transaction T() { }`, `transaction T() { skip }`,
	`transaction T(n) { v := read(x); if (v - n > 0) then write(x = v - n) else write(x = v - n + 100) }`,
	`transaction B(n) { v := read(y); n := v + 1; write(y = n); print(n) }`, `transaction C(n, n) { skip }`,
	`transaction T(p, q) { x' := read(x); if (x' + p < 10 && !(q = 3) || true) then { write(x = x' + 1); print(-x' * 2) } else write(x = -(-q)) ; }`,
	`transaction I(i, v) { array temps(24); relation r(3, 4); write(temps(i) = v); write(r(i, 2) = r(1, i) + temps(0)); print(read(temps(i + 1))) }`,
	`transaction T() { if ((1 + 2) * 3 >= 4) then { { skip; skip }; x := 1 } else { if (x != 2) then skip } } // tail`,
	"transaction A(n) { print(n) }\ntransaction B(m) { print(n); n := m }",
	`transaction T() { x := 99999999999999999999 }`, `transaction T() { x := 1 & 2 }`, `transaction T() { write(a(1) = 2) }`,
	`transaction T(é, _x) { ü := é + _x' }`, `transaction read() { skip }`, `transaction T(if) { skip }`, `transaction T() { x := ((((1)))) }`,
}

// FuzzParseProgram: the parser never panics, and on every program it
// accepts the tree it builds is the one the parent commit built in two
// steps — its parse, which knew no parameters, then ResolveParams — and is
// the tree its own printing parses to.
func FuzzParseProgram(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		txns, err := ParseProgram(src)
		if err != nil {
			return
		}
		for _, txn := range txns {
			old := *txn
			old.Body = demoted(reflect.ValueOf(&txn.Body).Elem()).Interface().(Cmd)
			oracleResolveParams(&old)
			if !reflect.DeepEqual(&old, txn) {
				t.Fatalf("%q: parsed\n %#v\nthe parent's parse and ResolveParams give\n %#v", src, txn.Body, old.Body)
			}
			printed := sourceOf(txn)
			again, err := ParseTransaction(printed)
			if err != nil {
				t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
			}
			again.Body, old.Body = rightNested(again.Body), rightNested(txn.Body)
			if !reflect.DeepEqual(again, &old) {
				t.Fatalf("%q prints as %q, which parses to\n %#v\nnot\n %#v", src, printed, again.Body, old.Body)
			}
		}
	})
}

// sameBox reports whether two interface values hold the same box: the
// same dynamic type at the same address, not merely equal values.
func sameBox(a, b any) bool {
	type box struct{ typ, data unsafe.Pointer }
	x, y := (*box)(unsafe.Pointer(&a)), (*box)(unsafe.Pointer(&b))
	return x.typ == y.typ && x.data == y.data
}

// treeGen draws random trees over every node kind, with the neutral
// elements, repeated subterms and skips a simplifier lives on. Parameter,
// temporary, object and array names are disjoint, as the parser leaves
// them: the parent's simplifier compared summands by their printed form,
// which cannot tell a parameter from a temporary of the same name.
type treeGen struct{ rng *rand.Rand }

func (g treeGen) leaf() Expr {
	switch g.rng.Intn(5) {
	case 0:
		return IntLit{Value: []int64{0, 1, 2, 7, 300, math.MaxInt64}[g.rng.Intn(6)]}
	case 1:
		return Param{Name: []string{"p", "q"}[g.rng.Intn(2)]}
	case 2:
		return TempVar{Name: []string{"t", "u"}[g.rng.Intn(2)]}
	}
	return Read{Obj: []ObjID{"x", "y", "x@d0", "x@d1"}[g.rng.Intn(4)]}
}

func (g treeGen) expr(depth int) Expr {
	if depth <= 0 {
		return g.leaf()
	}
	switch g.rng.Intn(8) {
	case 0:
		return g.leaf()
	case 1:
		return Neg{E: g.expr(depth - 1)}
	case 2:
		return ArrayRead{Array: "arr", Index: g.expr(depth - 1)}
	case 3:
		return Bin{Op: OpMul, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 4:
		e := g.expr(depth - 1) // a subterm and its inverse, so that something cancels
		return Bin{Op: OpSub, L: Bin{Op: OpAdd, L: g.expr(depth - 1), R: e}, R: e}
	}
	return Bin{Op: []BinOp{OpAdd, OpSub}[g.rng.Intn(2)], L: g.expr(depth - 1), R: g.expr(depth - 1)}
}

func (g treeGen) boolExpr(depth int) BoolExpr {
	if depth <= 0 {
		return BoolLit{Value: g.rng.Intn(2) == 0}
	}
	switch g.rng.Intn(6) {
	case 0:
		return BoolLit{Value: g.rng.Intn(2) == 0}
	case 1:
		return And{L: g.boolExpr(depth - 1), R: g.boolExpr(depth - 1)}
	case 2:
		return Or{L: g.boolExpr(depth - 1), R: g.boolExpr(depth - 1)}
	case 3:
		return Not{B: g.boolExpr(depth - 1)}
	}
	return Cmp{Op: CmpOp(g.rng.Intn(6)), L: g.expr(depth - 1), R: g.expr(depth - 1)}
}

func (g treeGen) cmd(depth int) Cmd {
	if depth <= 0 {
		return Skip{}
	}
	switch g.rng.Intn(8) {
	case 0:
		return Skip{}
	case 1:
		return Assign{Var: "t", E: g.expr(depth)}
	case 2:
		return WriteCmd{Obj: "x", E: g.expr(depth)}
	case 3:
		return ArrayWrite{Array: "arr", Index: g.expr(depth - 1), E: g.expr(depth - 1)}
	case 4:
		return PrintCmd{E: g.expr(depth)}
	case 5:
		return If{Cond: g.boolExpr(depth), Then: g.cmd(depth - 1), Else: g.cmd(depth - 1)}
	}
	return Seq{First: g.cmd(depth - 1), Rest: g.cmd(depth - 1)}
}

// TestSimplifySharesUnchanged: the simplifier builds what the parent's
// rebuilt — on 500 random trees, node for node — and hands back the very
// node it was given wherever there was nothing to simplify, down to the
// whole body of a transaction already in simplified form.
func TestSimplifySharesUnchanged(t *testing.T) {
	g := treeGen{rand.New(rand.NewSource(19))}
	shared := 0
	for i := 0; i < 500; i++ {
		txn := &Transaction{Name: "R", Params: []string{"p", "q"}, Arrays: []ArrayDecl{{Name: "arr", Len: 4, Cols: 1}},
			Body: g.cmd(1 + i%5)}
		got, want := Simplify(txn), oracleSimplify(txn)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tree %d: %s\nsimplifies to %s\nthe parent's to %s", i, txn, got, want)
		}
		// Simplifying again has nothing left to do.
		if again := Simplify(got); !sameBox(again.Body, got.Body) {
			t.Fatalf("tree %d: %s is simplified, yet simplifying it builds a new body", i, got)
		}
		if sameBox(got.Body, txn.Body) {
			shared++
		}
		e := g.expr(i % 6)
		if got, want := SimplifyExpr(e), oracleSimplifyExpr(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("expression %d: %s\nsimplifies to %s\nthe parent's to %s", i, e, got, want)
		}
	}
	t.Logf("%d of 500 random bodies were already simplified and came back as they were", shared)

	for _, src := range []string{
		`transaction T(n) { v := read(x); if (v - n > 0) then write(x = v - n) else write(x = v - n + 100) }`,
		`transaction T(a, b) { print(-a + b * 3 - read(y) - 7); if (a < b && !(a = 1) || b >= 2) then skip else t := a * b }`,
		`transaction T(i) { array arr(4); write(arr(i + 1) = arr(i) + 300); print(arr(2 * i)) }`,
	} {
		txn := MustParse(src)
		if got := Simplify(txn); !sameBox(got.Body, txn.Body) {
			t.Errorf("%s has nothing to simplify, yet its body was rebuilt as %s", txn, got)
		}
	}
	// One level down: what changes is rebuilt, what does not is shared.
	txn := MustParse(`transaction T(n) { write(x = n + 0); if (n > 1) then print(n - 1) else skip }`)
	got := Simplify(txn).Body.(Seq)
	if want := Cmd(WriteCmd{Obj: "x", E: Param{Name: "n"}}); !reflect.DeepEqual(got.First, want) {
		t.Errorf("first command simplified to %s, want %s", got.First, want)
	}
	if !sameBox(got.Rest, txn.Body.(Seq).Rest) {
		t.Errorf("the conditional had nothing to simplify, yet it was rebuilt")
	}
}

// TestRewriteAndLowerShareUnchanged: the replica rewrite and the lowering
// hand back the subtrees that touch no replicated object and no array.
func TestRewriteAndLowerShareUnchanged(t *testing.T) {
	txn := MustParse(`transaction T(n) { v := read(x); if (v - n > 0) then write(x = v - n) else print(read(y) + n) }`)
	if got := ReplicaRewrite(txn, 0, 2, nil); !sameBox(got.Body, txn.Body) {
		t.Errorf("nothing is replicated, yet the rewrite rebuilt the body as %s", got)
	}
	got := ReplicaRewrite(txn, 0, 2, map[ObjID]bool{"x": true}).Body.(Seq)
	if sameBox(got.First, txn.Body.(Seq).First) {
		t.Errorf("read(x) is replicated, yet its assignment was shared")
	}
	if !sameBox(got.Rest.(If).Else, txn.Body.(Seq).Rest.(If).Else) {
		t.Errorf("print(read(y) + n) touches nothing replicated, yet the rewrite rebuilt it")
	}

	if got, err := Lower(txn); err != nil || !sameBox(got.Body, txn.Body) {
		t.Errorf("no arrays, yet the lowering rebuilt the body as %s (error %v)", got, err)
	}
	arr := MustParse(`transaction T(i) { array a(3); v := read(x) + i; write(a(i) = v); print(v - 1) }`)
	low, err := Lower(arr)
	if err != nil {
		t.Fatal(err)
	}
	cmds, lowered := Commands(arr.Body), Commands(low.Body)
	if !sameBox(lowered[0], cmds[0]) || !sameBox(lowered[len(lowered)-1], cmds[2]) {
		t.Errorf("the commands around the array write touch no array, yet the lowering rebuilt them: %s", low)
	}
}
