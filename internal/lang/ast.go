// Package lang implements the transaction languages L and L++ from the
// Homeostasis paper (Roy et al., SIGMOD 2015), Section 2.3 and 2.4.
//
// L is a deliberately small, loop-free language over an integer key-value
// database: arithmetic expressions, boolean expressions, commands
// (skip, assignment to temporary variables, sequencing, conditionals,
// database writes, and print statements), and transactions with integer
// parameters. L++ adds bounded arrays and relations as syntactic sugar;
// Lower desugars L++ programs into pure L.
//
// The package provides a lexer, a recursive-descent parser, a deterministic
// evaluator implementing Eval(T, D) = (D', log), the L++ -> L lowering of
// Appendix A, and the remote-write transformation of Appendix B.
package lang

import (
	"fmt"
	"strings"
)

// ObjID names a database object. Array cells use the canonical form
// "name[i]" produced by ArrayObj.
type ObjID string

// ArrayObj returns the ObjID of cell i of array a, per the Appendix A
// encoding of arrays as families of scalar objects a[0], a[1], ...
func ArrayObj(a string, i int64) ObjID {
	return ObjID(fmt.Sprintf("%s[%d]", a, i))
}

// BinOp enumerates the binary arithmetic operators of L.
type BinOp int

// Arithmetic operators. L's grammar has + and *; - is provided directly
// since -e and e0 + (-e1) are both expressible and subtraction appears
// throughout the paper's examples.
const (
	OpAdd BinOp = iota
	OpMul
	OpSub
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpMul:
		return "*"
	case OpSub:
		return "-"
	}
	return "?"
}

// CmpOp enumerates the comparison operators of L.
type CmpOp int

// Comparison operators. The grammar lists <, =, <=; the rest are sugar the
// parser normalizes but that we keep in the AST for readable printing.
const (
	CmpLT CmpOp = iota
	CmpEQ
	CmpLE
	CmpGT
	CmpGE
	CmpNE
)

func (op CmpOp) String() string {
	switch op {
	case CmpLT:
		return "<"
	case CmpEQ:
		return "="
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpNE:
		return "!="
	}
	return "?"
}

// Negate returns the comparison describing the complement relation.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpLT:
		return CmpGE
	case CmpEQ:
		return CmpNE
	case CmpLE:
		return CmpGT
	case CmpGT:
		return CmpLE
	case CmpGE:
		return CmpLT
	case CmpNE:
		return CmpEQ
	}
	return op
}

// Holds reports whether "a op b" is true.
func (op CmpOp) Holds(a, b int64) bool {
	switch op {
	case CmpLT:
		return a < b
	case CmpEQ:
		return a == b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpNE:
		return a != b
	}
	return false
}

// Expr is an arithmetic expression (AExp in Figure 5).
type Expr interface {
	exprNode()
	String() string
}

// IntLit is an integer literal n.
type IntLit struct{ Value int64 }

// Param is a reference to a transaction parameter p.
type Param struct{ Name string }

// TempVar is a reference to a temporary program variable x^.
type TempVar struct{ Name string }

// Read is read(x): the current value of database object x.
type Read struct{ Obj ObjID }

// ArrayRead is the L++ form a(i): read cell i of bounded array a.
// Lower rewrites it into a chain of conditionals over Read.
type ArrayRead struct {
	Array string
	Index Expr
}

// Neg is unary negation -e.
type Neg struct{ E Expr }

// Bin is a binary arithmetic expression e0 op e1.
type Bin struct {
	Op   BinOp
	L, R Expr
}

func (IntLit) exprNode()    {}
func (Param) exprNode()     {}
func (TempVar) exprNode()   {}
func (Read) exprNode()      {}
func (ArrayRead) exprNode() {}
func (Neg) exprNode()       {}
func (Bin) exprNode()       {}

func (e IntLit) String() string  { return fmt.Sprintf("%d", e.Value) }
func (e Param) String() string   { return e.Name }
func (e TempVar) String() string { return e.Name }
func (e Read) String() string    { return fmt.Sprintf("read(%s)", e.Obj) }
func (e ArrayRead) String() string {
	return fmt.Sprintf("%s(%s)", e.Array, e.Index)
}
func (e Neg) String() string { return fmt.Sprintf("-(%s)", e.E) }
func (e Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// BoolExpr is a boolean expression (BExp in Figure 5).
type BoolExpr interface {
	boolNode()
	String() string
}

// BoolLit is true or false.
type BoolLit struct{ Value bool }

// Cmp compares two arithmetic expressions: e0 op e1.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// And is conjunction b0 && b1.
type And struct{ L, R BoolExpr }

// Or is disjunction b0 || b1 (sugar: !(!b0 && !b1)).
type Or struct{ L, R BoolExpr }

// Not is negation !b.
type Not struct{ B BoolExpr }

func (BoolLit) boolNode() {}
func (Cmp) boolNode()     {}
func (And) boolNode()     {}
func (Or) boolNode()      {}
func (Not) boolNode()     {}

func (b BoolLit) String() string {
	if b.Value {
		return "true"
	}
	return "false"
}
func (b Cmp) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }
func (b And) String() string { return fmt.Sprintf("(%s && %s)", b.L, b.R) }
func (b Or) String() string  { return fmt.Sprintf("(%s || %s)", b.L, b.R) }
func (b Not) String() string { return fmt.Sprintf("!(%s)", b.B) }

// Cmd is a command (Com in Figure 5).
type Cmd interface {
	cmdNode()
	String() string
}

// Skip does nothing.
type Skip struct{}

// Assign binds a temporary variable: x^ := e.
type Assign struct {
	Var string
	E   Expr
}

// Seq runs c0 then c1. The parser flattens statement lists into
// right-nested Seq nodes.
type Seq struct{ First, Rest Cmd }

// If branches on a boolean expression.
type If struct {
	Cond BoolExpr
	Then Cmd
	Else Cmd
}

// WriteCmd stores the value of E into database object Obj: write(x = e).
type WriteCmd struct {
	Obj ObjID
	E   Expr
}

// ArrayWrite is the L++ form write(a(i) = e). Lower rewrites it into a
// chain of conditionals over WriteCmd.
type ArrayWrite struct {
	Array string
	Index Expr
	E     Expr
}

// PrintCmd appends the value of E to the transaction's externally visible
// log: print(e).
type PrintCmd struct{ E Expr }

func (Skip) cmdNode()       {}
func (Assign) cmdNode()     {}
func (Seq) cmdNode()        {}
func (If) cmdNode()         {}
func (WriteCmd) cmdNode()   {}
func (ArrayWrite) cmdNode() {}
func (PrintCmd) cmdNode()   {}

func (Skip) String() string { return "skip" }
func (c Assign) String() string {
	return fmt.Sprintf("%s := %s", c.Var, c.E)
}
func (c Seq) String() string {
	return fmt.Sprintf("%s; %s", c.First, c.Rest)
}
func (c If) String() string {
	return fmt.Sprintf("if %s then { %s } else { %s }", c.Cond, c.Then, c.Else)
}
func (c WriteCmd) String() string {
	return fmt.Sprintf("write(%s = %s)", c.Obj, c.E)
}
func (c ArrayWrite) String() string {
	return fmt.Sprintf("write(%s(%s) = %s)", c.Array, c.Index, c.E)
}
func (c PrintCmd) String() string { return fmt.Sprintf("print(%s)", c.E) }

// ArrayDecl declares a bounded L++ array: its name and fixed length.
// Relations are represented as 2-D arrays stored in row-major order
// (Appendix A); the Cols field records the row width for them, and is 1
// for plain arrays.
type ArrayDecl struct {
	Name string
	Len  int64
	Cols int64
}

// Transaction is a named transaction {c}(P) with zero or more integer
// parameters. Arrays lists the L++ array declarations the body may use.
type Transaction struct {
	Name   string
	Params []string
	Arrays []ArrayDecl
	Body   Cmd
}

func (t *Transaction) String() string {
	var sb strings.Builder
	sb.WriteString(t.Name)
	sb.WriteString("(")
	sb.WriteString(strings.Join(t.Params, ", "))
	sb.WriteString(") { ")
	sb.WriteString(t.Body.String())
	sb.WriteString(" }")
	return sb.String()
}

// SeqOf builds a right-nested Seq from a list of commands, eliding Skips.
func SeqOf(cmds ...Cmd) Cmd {
	var out Cmd = Skip{}
	for i := len(cmds) - 1; i >= 0; i-- {
		if _, ok := cmds[i].(Skip); ok {
			continue
		}
		if _, ok := out.(Skip); ok {
			out = cmds[i]
		} else {
			out = Seq{First: cmds[i], Rest: out}
		}
	}
	return out
}

// reSeq is the sequence c after a pass rewrote its halves into first and
// rest: c itself when neither changed, and SeqOf of them otherwise — also
// when a half is a skip, which SeqOf drops, so that a pass which shares
// what it does not change builds what one which rebuilds everything does.
func reSeq(c Cmd, first, rest Cmd, changed bool) (Cmd, bool) {
	_, firstSkip := first.(Skip)
	_, restSkip := rest.(Skip)
	if changed || firstSkip || restSkip {
		return SeqOf(first, rest), true
	}
	return c, false
}

// Commands flattens a command into the ordered list of atomic commands and
// conditionals it is composed of.
func Commands(c Cmd) []Cmd {
	switch c := c.(type) {
	case Seq:
		return append(Commands(c.First), Commands(c.Rest)...)
	case Skip:
		return nil
	default:
		return []Cmd{c}
	}
}
