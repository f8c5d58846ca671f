package lang

import "fmt"

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
// Subtrees without array accesses are shared with t, not copied.
func Lower(t *Transaction) (*Transaction, error) {
	l := &lowerer{arrays: make(map[string]ArrayDecl, len(t.Arrays))}
	for _, d := range t.Arrays {
		l.arrays[d.Name] = d
	}
	body, _, err := l.lowerCmd(t.Body)
	if err != nil {
		return nil, fmt.Errorf("lang: lowering %s: %w", t.Name, err)
	}
	return &Transaction{Name: t.Name, Params: t.Params, Body: body}, nil
}

// lowerer is one lowering pass. Its walks return the node they were given,
// and false, when nothing beneath it accesses an array.
type lowerer struct {
	arrays map[string]ArrayDecl
	nTemp  int
	// pre is a stack of hoisted prelude commands: lowering an expression
	// pushes the commands that must run before it, and the command that
	// holds the expression pops them in front of itself.
	pre []Cmd
}

func (l *lowerer) fresh() string {
	l.nTemp++
	return fmt.Sprintf("_lw%d", l.nTemp)
}

// lowerExpr rewrites an expression, pushing hoisted prelude commands for
// any ArrayRead it contains.
func (l *lowerer) lowerExpr(e Expr) (Expr, bool, error) {
	switch n := e.(type) {
	case IntLit, Param, TempVar, Read:
		return e, false, nil
	case ArrayRead:
		d, ok := l.arrays[n.Array]
		if !ok {
			return nil, false, fmt.Errorf("undeclared array %q", n.Array)
		}
		idx, _, err := l.lowerExpr(n.Index)
		if err != nil {
			return nil, false, err
		}
		// Constant-index fast path: a(7) is just the scalar object a[7],
		// no conditional chain needed. Relational encodings (sqlfront)
		// produce only literal indices, so their scans stay analyzable
		// instead of exploding into Len*Cols-way chains per access.
		// Out-of-range literals read the null default 0, matching the
		// chain's final else.
		if lit, isLit := idx.(IntLit); isLit {
			if lit.Value < 0 || lit.Value >= d.Len*d.Cols {
				return IntLit{Value: 0}, true, nil
			}
			return Read{Obj: ArrayObj(d.Name, lit.Value)}, true, nil
		}
		// Hoist the index into a temp so the if-chain tests a stable value.
		iv := l.fresh()
		tv := l.fresh()
		l.pre = append(l.pre, Assign{Var: iv, E: idx}, readChain(d, iv, tv))
		return TempVar{Name: tv}, true, nil
	case Neg:
		inner, changed, err := l.lowerExpr(n.E)
		if err != nil || !changed {
			return e, false, err
		}
		return Neg{E: inner}, true, nil
	case Bin:
		lx, lc, err := l.lowerExpr(n.L)
		if err != nil {
			return nil, false, err
		}
		rx, rc, err := l.lowerExpr(n.R)
		if err != nil || !(lc || rc) {
			return e, false, err
		}
		return Bin{Op: n.Op, L: lx, R: rx}, true, nil
	}
	return nil, false, fmt.Errorf("unknown expression %T", e)
}

func (l *lowerer) lowerBool(b BoolExpr) (BoolExpr, bool, error) {
	switch n := b.(type) {
	case BoolLit:
		return b, false, nil
	case Cmp:
		lx, lc, err := l.lowerExpr(n.L)
		if err != nil {
			return nil, false, err
		}
		rx, rc, err := l.lowerExpr(n.R)
		if err != nil || !(lc || rc) {
			return b, false, err
		}
		return Cmp{Op: n.Op, L: lx, R: rx}, true, nil
	case And:
		lb, lc, err := l.lowerBool(n.L)
		if err != nil {
			return nil, false, err
		}
		rb, rc, err := l.lowerBool(n.R)
		if err != nil || !(lc || rc) {
			return b, false, err
		}
		return And{L: lb, R: rb}, true, nil
	case Or:
		lb, lc, err := l.lowerBool(n.L)
		if err != nil {
			return nil, false, err
		}
		rb, rc, err := l.lowerBool(n.R)
		if err != nil || !(lc || rc) {
			return b, false, err
		}
		return Or{L: lb, R: rb}, true, nil
	case Not:
		ib, changed, err := l.lowerBool(n.B)
		if err != nil || !changed {
			return b, false, err
		}
		return Not{B: ib}, true, nil
	}
	return nil, false, fmt.Errorf("unknown boolean expression %T", b)
}

// hoisted pops the prelude pushed since start in front of c.
func (l *lowerer) hoisted(start int, c Cmd) Cmd {
	out := SeqOf(append(l.pre[start:], c)...)
	l.pre = l.pre[:start]
	return out
}

func (l *lowerer) lowerCmd(c Cmd) (Cmd, bool, error) {
	start := len(l.pre)
	switch n := c.(type) {
	case Skip:
		return c, false, nil
	case Assign:
		e, changed, err := l.lowerExpr(n.E)
		if err != nil || !changed {
			return c, false, err
		}
		return l.hoisted(start, Assign{Var: n.Var, E: e}), true, nil
	case Seq:
		first, fc, err := l.lowerCmd(n.First)
		if err != nil {
			return nil, false, err
		}
		rest, rc, err := l.lowerCmd(n.Rest)
		if err != nil {
			return nil, false, err
		}
		out, changed := reSeq(c, first, rest, fc || rc)
		return out, changed, nil
	case If:
		cond, cc, err := l.lowerBool(n.Cond)
		if err != nil {
			return nil, false, err
		}
		thenC, tc, err := l.lowerCmd(n.Then)
		if err != nil {
			return nil, false, err
		}
		elseC, ec, err := l.lowerCmd(n.Else)
		if err != nil || !(cc || tc || ec) {
			return c, false, err
		}
		return l.hoisted(start, If{Cond: cond, Then: thenC, Else: elseC}), true, nil
	case WriteCmd:
		e, changed, err := l.lowerExpr(n.E)
		if err != nil || !changed {
			return c, false, err
		}
		return l.hoisted(start, WriteCmd{Obj: n.Obj, E: e}), true, nil
	case ArrayWrite:
		d, ok := l.arrays[n.Array]
		if !ok {
			return nil, false, fmt.Errorf("undeclared array %q", n.Array)
		}
		idx, _, err := l.lowerExpr(n.Index)
		if err != nil {
			return nil, false, err
		}
		val, _, err := l.lowerExpr(n.E)
		if err != nil {
			return nil, false, err
		}
		// Constant-index fast path, mirroring lowerExpr: out-of-range
		// literal writes are no-ops.
		if lit, isLit := idx.(IntLit); isLit {
			if lit.Value < 0 || lit.Value >= d.Len*d.Cols {
				return l.hoisted(start, Skip{}), true, nil
			}
			return l.hoisted(start, WriteCmd{Obj: ArrayObj(d.Name, lit.Value), E: val}), true, nil
		}
		iv := l.fresh()
		vv := l.fresh()
		l.pre = append(l.pre, Assign{Var: iv, E: idx}, Assign{Var: vv, E: val})
		return l.hoisted(start, writeChain(d, iv, vv)), true, nil
	case PrintCmd:
		e, changed, err := l.lowerExpr(n.E)
		if err != nil || !changed {
			return c, false, err
		}
		return l.hoisted(start, PrintCmd{E: e}), true, nil
	}
	return nil, false, fmt.Errorf("unknown command %T", c)
}

// readChain builds "if iv = 0 then tv := read(a[0]) else if iv = 1 ... else
// tv := 0", the Appendix A encoding of a bounded array read. Out-of-range
// indices yield the null default value 0.
func readChain(d ArrayDecl, indexVar, targetVar string) Cmd {
	n := d.Len * d.Cols
	var chain Cmd = Assign{Var: targetVar, E: IntLit{Value: 0}}
	for i := n - 1; i >= 0; i-- {
		chain = If{
			Cond: Cmp{Op: CmpEQ, L: TempVar{Name: indexVar}, R: IntLit{Value: i}},
			Then: Assign{Var: targetVar, E: Read{Obj: ArrayObj(d.Name, i)}},
			Else: chain,
		}
	}
	return chain
}

// writeChain builds the analogous conditional chain of scalar writes.
// Out-of-range indices are a no-op (skip).
func writeChain(d ArrayDecl, indexVar, valueVar string) Cmd {
	n := d.Len * d.Cols
	var chain Cmd = Skip{}
	for i := n - 1; i >= 0; i-- {
		chain = If{
			Cond: Cmp{Op: CmpEQ, L: TempVar{Name: indexVar}, R: IntLit{Value: i}},
			Then: WriteCmd{Obj: ArrayObj(d.Name, i), E: TempVar{Name: valueVar}},
			Else: chain,
		}
	}
	return chain
}
