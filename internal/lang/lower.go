package lang

import (
	"fmt"
	"strconv"
)

// Lower desugars an L++ transaction into pure L per Appendix A: every
// ArrayRead a(i) becomes a chain of conditionals over the scalar objects
// a[0..n-1], and every ArrayWrite becomes the analogous write chain.
// Relations were already flattened to row-major indices by the parser.
//
// The returned transaction has no Arrays and contains no ArrayRead or
// ArrayWrite nodes; it is suitable for symbolic-table construction, which
// is defined on L.
//
// Array reads inside expressions are hoisted into fresh temporary
// variables first (the if-chain is a command, not an expression), matching
// the "xˆ := read(a(iˆ)) is syntactic sugar" presentation in the paper.
// Subtrees without array accesses are shared with t, not copied, and t
// itself comes back when it neither declares nor accesses an array. The
// fresh temporaries are named _lw1, _lw2, ... skipping every name the
// source already uses as a temporary.
func Lower(t *Transaction) (*Transaction, error) {
	l := &lowerer{arrays: t.Arrays, src: t.Body}
	body, changed := l.cmd(t.Body)
	if l.undeclared != "" {
		return nil, fmt.Errorf("lang: lowering %s: undeclared array %q", t.Name, l.undeclared)
	}
	if !changed && len(t.Arrays) == 0 {
		return t, nil
	}
	return &Transaction{Name: t.Name, Params: t.Params, Body: body}, nil
}

// lowerer is one lowering pass: it handles array reads and writes, and the
// walk carries it through every other node.
type lowerer struct {
	arrays []ArrayDecl
	src    Cmd
	// taken holds the temporaries src names, collected at the first fresh.
	taken temps
	nTemp int
	// pre is a stack of hoisted prelude commands: lowering an expression
	// pushes the commands that must run before it, and the command that
	// holds the expression pops them in front of itself.
	pre []Cmd
	// undeclared is the first array accessed without a declaration.
	undeclared string
}

// decl finds the declaration of array a — the last, as Eval's is — and
// records a as undeclared when there is none.
func (l *lowerer) decl(a string) (ArrayDecl, bool) {
	for i := len(l.arrays) - 1; i >= 0; i-- {
		if l.arrays[i].Name == a {
			return l.arrays[i], true
		}
	}
	if l.undeclared == "" {
		l.undeclared = a
	}
	return ArrayDecl{}, false
}

func (l *lowerer) fresh() string {
	if l.taken == nil {
		l.taken = temps{}
		l.taken.cmd(l.src)
	}
	for {
		l.nTemp++
		if name := "_lw" + strconv.Itoa(l.nTemp); !l.taken[name] {
			return name
		}
	}
}

// expr rewrites an expression, pushing hoisted prelude commands for any
// ArrayRead it contains.
func (l *lowerer) expr(e Expr) (Expr, bool) {
	n, ok := e.(ArrayRead)
	if !ok {
		return mapExpr(l, e)
	}
	d, ok := l.decl(n.Array)
	if !ok {
		return e, false
	}
	idx, _ := l.expr(n.Index)
	// Constant-index fast path: a(7) is just the scalar object a[7],
	// no conditional chain needed. Relational encodings (sqlfront)
	// produce only literal indices, so their scans stay analyzable
	// instead of exploding into Len*Cols-way chains per access.
	// Out-of-range literals read the null default 0, matching the
	// chain's final else.
	if lit, isLit := idx.(IntLit); isLit {
		if lit.Value < 0 || lit.Value >= d.Len*d.Cols {
			return IntLit{Value: 0}, true
		}
		return Read{Obj: ArrayObj(d.Name, lit.Value)}, true
	}
	// Hoist the index into a temp so the if-chain tests a stable value.
	iv := l.fresh()
	tv := l.fresh()
	l.pre = append(l.pre, Assign{Var: iv, E: idx}, chain(d, iv, tv, false))
	return TempVar{Name: tv}, true
}

// boolExpr rewrites a condition. The right side of && or || is evaluated
// only when the left side does not decide, so a prelude its lowering
// pushes must not run in front of the condition, where it would evaluate
// what the source skips (an unbound temporary fails). The pair is decided
// into a flag temporary f instead, by a conditional that runs the prelude
// only where the source evaluates the right side; the condition is f = 1.
func (l *lowerer) boolExpr(b BoolExpr) (BoolExpr, bool) {
	var left, right BoolExpr
	switch n := b.(type) {
	case And:
		left, right = n.L, n.R
	case Or:
		left, right = n.L, n.R
	default:
		return mapBool(l, b)
	}
	lo, lc := l.boolExpr(left)
	start := len(l.pre)
	ro, rc := l.boolExpr(right)
	_, and := b.(And)
	switch {
	case !lc && !rc:
		return b, false
	case start == len(l.pre) && and:
		return And{L: lo, R: ro}, true
	case start == len(l.pre):
		return Or{L: lo, R: ro}, true
	}
	f := l.fresh()
	set := func(v int64) Cmd { return Assign{Var: f, E: IntLit{Value: v}} }
	then, els := l.hoisted(start, If{Cond: ro, Then: set(1), Else: set(0)}), set(0)
	if !and {
		then, els = set(1), then
	}
	l.pre = append(l.pre, If{Cond: lo, Then: then, Else: els})
	return Cmp{Op: CmpEQ, L: TempVar{Name: f}, R: IntLit{Value: 1}}, true
}

// cmd rewrites a command and pops the prelude its expressions pushed in
// front of it.
func (l *lowerer) cmd(c Cmd) (Cmd, bool) {
	start := len(l.pre)
	n, ok := c.(ArrayWrite)
	if !ok {
		out, changed := mapCmd(l, c)
		if !changed {
			return c, false
		}
		return l.hoisted(start, out), true
	}
	d, ok := l.decl(n.Array)
	if !ok {
		return c, false
	}
	idx, _ := l.expr(n.Index)
	val, _ := l.expr(n.E)
	// Constant-index fast path, mirroring expr: an out-of-range literal
	// write stores nothing but still evaluates its value, as Eval does.
	if lit, isLit := idx.(IntLit); isLit {
		if lit.Value < 0 || lit.Value >= d.Len*d.Cols {
			return l.hoisted(start, Assign{Var: l.fresh(), E: val}), true
		}
		return l.hoisted(start, WriteCmd{Obj: ArrayObj(d.Name, lit.Value), E: val}), true
	}
	iv := l.fresh()
	vv := l.fresh()
	l.pre = append(l.pre, Assign{Var: iv, E: idx}, Assign{Var: vv, E: val})
	return l.hoisted(start, chain(d, iv, vv, true)), true
}

// hoisted pops the prelude pushed since start in front of c.
func (l *lowerer) hoisted(start int, c Cmd) Cmd {
	if start == len(l.pre) {
		return c
	}
	out := SeqOf(append(l.pre[start:], c)...)
	l.pre = l.pre[:start]
	return out
}

// temps is the pass that collects the temporaries a tree names, assigned
// or read. It changes nothing.
type temps map[string]bool

func (t temps) expr(e Expr) (Expr, bool) {
	if v, ok := e.(TempVar); ok {
		t[v.Name] = true
	}
	return mapExpr(t, e)
}

func (t temps) boolExpr(b BoolExpr) (BoolExpr, bool) { return mapBool(t, b) }

func (t temps) cmd(c Cmd) (Cmd, bool) {
	if a, ok := c.(Assign); ok {
		t[a.Var] = true
	}
	return mapCmd(t, c)
}

// chain builds the Appendix A encoding of a bounded array access, "if
// iv = 0 then c[0] else if iv = 1 ... else c[n]": for a read, c[i] is
// tv := read(a[i]) and c[n] the null default tv := 0; for a write, c[i] is
// write(a[i] = tv) and c[n] skip, so an out-of-range index writes nothing.
func chain(d ArrayDecl, iv, tv string, write bool) Cmd {
	var c Cmd = Skip{}
	if !write {
		c = Assign{Var: tv, E: IntLit{Value: 0}}
	}
	for i := d.Len*d.Cols - 1; i >= 0; i-- {
		obj, cell := ArrayObj(d.Name, i), Cmd(nil)
		if write {
			cell = WriteCmd{Obj: obj, E: TempVar{Name: tv}}
		} else {
			cell = Assign{Var: tv, E: Read{Obj: obj}}
		}
		c = If{Cond: Cmp{Op: CmpEQ, L: TempVar{Name: iv}, R: IntLit{Value: i}}, Then: cell, Else: c}
	}
	return c
}
