package lang

import "math"

// The front end as it stood before the parser resolved parameters itself
// and before the simplifier shared what it does not change: the parent
// commit's ResolveParams and Simplify, kept word for word but for an
// "oracle" in front of every name, as the reference the differential
// tests and the parser's fuzzer hold their replacements to. Since then the
// simplifier's arithmetic is checked, and the oracle with it: a sum whose
// constants leave int64 stays as it is, a product of literals that does is
// kept whole, a constant of -2^63 is added rather than its negation
// subtracted, and a false right side of && (true of ||) and a zero factor
// no longer absorb an operand whose evaluation may fail.

// oracleResolveParams rewrites TempVar nodes that name declared parameters into
// Param nodes, in place conceptually (returns rewritten trees). The parser
// cannot distinguish them lexically.
func oracleResolveParams(t *Transaction) {
	params := make(map[string]bool, len(t.Params))
	for _, p := range t.Params {
		params[p] = true
	}
	t.Body = oracleResolveCmd(t.Body, params)
}

func oracleResolveCmd(c Cmd, params map[string]bool) Cmd {
	switch c := c.(type) {
	case Assign:
		return Assign{Var: c.Var, E: oracleResolveExpr(c.E, params)}
	case Seq:
		return Seq{First: oracleResolveCmd(c.First, params), Rest: oracleResolveCmd(c.Rest, params)}
	case If:
		return If{
			Cond: oracleResolveBool(c.Cond, params),
			Then: oracleResolveCmd(c.Then, params),
			Else: oracleResolveCmd(c.Else, params),
		}
	case WriteCmd:
		return WriteCmd{Obj: c.Obj, E: oracleResolveExpr(c.E, params)}
	case ArrayWrite:
		return ArrayWrite{
			Array: c.Array,
			Index: oracleResolveExpr(c.Index, params),
			E:     oracleResolveExpr(c.E, params),
		}
	case PrintCmd:
		return PrintCmd{E: oracleResolveExpr(c.E, params)}
	default:
		return c
	}
}

func oracleResolveExpr(e Expr, params map[string]bool) Expr {
	switch e := e.(type) {
	case TempVar:
		if params[e.Name] {
			return Param{Name: e.Name}
		}
		return e
	case ArrayRead:
		return ArrayRead{Array: e.Array, Index: oracleResolveExpr(e.Index, params)}
	case Neg:
		return Neg{E: oracleResolveExpr(e.E, params)}
	case Bin:
		return Bin{Op: e.Op, L: oracleResolveExpr(e.L, params), R: oracleResolveExpr(e.R, params)}
	default:
		return e
	}
}

func oracleResolveBool(b BoolExpr, params map[string]bool) BoolExpr {
	switch b := b.(type) {
	case Cmp:
		return Cmp{Op: b.Op, L: oracleResolveExpr(b.L, params), R: oracleResolveExpr(b.R, params)}
	case And:
		return And{L: oracleResolveBool(b.L, params), R: oracleResolveBool(b.R, params)}
	case Or:
		return Or{L: oracleResolveBool(b.L, params), R: oracleResolveBool(b.R, params)}
	case Not:
		return Not{B: oracleResolveBool(b.B, params)}
	default:
		return b
	}
}

// oracleSimplify performs algebraic simplification on a transaction:
// constant folding, cancellation of syntactically identical added and
// subtracted subterms (which removes the read(x) round trips the replica
// rewrite introduces, as in Figure 23c), and neutral-element elimination.
func oracleSimplify(t *Transaction) *Transaction {
	return &Transaction{
		Name:   t.Name,
		Params: t.Params,
		Arrays: t.Arrays,
		Body:   oracleSimplifyCmd(t.Body),
	}
}

func oracleSimplifyCmd(c Cmd) Cmd {
	switch c := c.(type) {
	case Assign:
		return Assign{Var: c.Var, E: oracleSimplifyExpr(c.E)}
	case Seq:
		return SeqOf(oracleSimplifyCmd(c.First), oracleSimplifyCmd(c.Rest))
	case If:
		cond := oracleSimplifyBool(c.Cond)
		if lit, ok := cond.(BoolLit); ok {
			if lit.Value {
				return oracleSimplifyCmd(c.Then)
			}
			return oracleSimplifyCmd(c.Else)
		}
		return If{Cond: cond, Then: oracleSimplifyCmd(c.Then), Else: oracleSimplifyCmd(c.Else)}
	case WriteCmd:
		return WriteCmd{Obj: c.Obj, E: oracleSimplifyExpr(c.E)}
	case ArrayWrite:
		return ArrayWrite{Array: c.Array, Index: oracleSimplifyExpr(c.Index), E: oracleSimplifyExpr(c.E)}
	case PrintCmd:
		return PrintCmd{E: oracleSimplifyExpr(c.E)}
	default:
		return c
	}
}

func oracleSimplifyBool(b BoolExpr) BoolExpr {
	switch b := b.(type) {
	case Cmp:
		l, r := oracleSimplifyExpr(b.L), oracleSimplifyExpr(b.R)
		if li, ok := l.(IntLit); ok {
			if ri, ok := r.(IntLit); ok {
				return BoolLit{Value: b.Op.Holds(li.Value, ri.Value)}
			}
		}
		return Cmp{Op: b.Op, L: l, R: r}
	case And:
		l, r := oracleSimplifyBool(b.L), oracleSimplifyBool(b.R)
		if lit, ok := l.(BoolLit); ok {
			if !lit.Value {
				return BoolLit{Value: false}
			}
			return r
		}
		if lit, ok := r.(BoolLit); ok {
			if !lit.Value {
				if mayFail(l) {
					return And{L: l, R: r}
				}
				return BoolLit{Value: false}
			}
			return l
		}
		return And{L: l, R: r}
	case Or:
		l, r := oracleSimplifyBool(b.L), oracleSimplifyBool(b.R)
		if lit, ok := l.(BoolLit); ok {
			if lit.Value {
				return BoolLit{Value: true}
			}
			return r
		}
		if lit, ok := r.(BoolLit); ok {
			if lit.Value {
				if mayFail(l) {
					return Or{L: l, R: r}
				}
				return BoolLit{Value: true}
			}
			return l
		}
		return Or{L: l, R: r}
	case Not:
		inner := oracleSimplifyBool(b.B)
		if lit, ok := inner.(BoolLit); ok {
			return BoolLit{Value: !lit.Value}
		}
		return Not{B: inner}
	default:
		return b
	}
}

// oracleSimplifyExpr simplifies an arithmetic expression by flattening it into a
// sum of signed terms, cancelling equal opposite terms, folding constants,
// and rebuilding a compact tree.
func oracleSimplifyExpr(e Expr) Expr {
	terms, c, exact := oracleFlattenSum(e, 1)
	if !exact {
		return e
	}
	// Cancel pairs of identical terms with opposite signs.
	type st struct {
		key  string
		e    Expr
		sign int64
	}
	var list []st
	for _, t := range terms {
		list = append(list, st{key: t.e.String(), e: t.e, sign: t.sign})
	}
	used := make([]bool, len(list))
	var kept []st
	for i := range list {
		if used[i] {
			continue
		}
		cancelled := false
		for j := i + 1; j < len(list); j++ {
			if !used[j] && list[j].key == list[i].key && list[j].sign == -list[i].sign {
				used[i], used[j] = true, true
				cancelled = true
				break
			}
		}
		if !cancelled {
			kept = append(kept, list[i])
		}
	}
	var out Expr
	for _, t := range kept {
		var te Expr = t.e
		if t.sign < 0 {
			if out == nil {
				out = Neg{E: te}
				continue
			}
			out = Bin{Op: OpSub, L: out, R: te}
			continue
		}
		if out == nil {
			out = te
		} else {
			out = Bin{Op: OpAdd, L: out, R: te}
		}
	}
	if out == nil {
		return IntLit{Value: c}
	}
	if c > 0 || c == math.MinInt64 {
		out = Bin{Op: OpAdd, L: out, R: IntLit{Value: c}}
	} else if c < 0 {
		out = Bin{Op: OpSub, L: out, R: IntLit{Value: -c}}
	}
	return out
}

type oracleSignedTerm struct {
	e    Expr
	sign int64 // +1 or -1
}

// oracleFlattenSum decomposes e (scaled by sign) into non-constant signed terms
// plus a constant, and whether the constant is exact. Products and other
// non-additive nodes are kept whole (after recursive simplification of
// their children).
func oracleFlattenSum(e Expr, sign int64) ([]oracleSignedTerm, int64, bool) {
	switch e := e.(type) {
	case IntLit:
		c, ok := Mul64(sign, e.Value)
		return nil, c, ok
	case Neg:
		return oracleFlattenSum(e.E, -sign)
	case Bin:
		switch e.Op {
		case OpAdd:
			lt, lc, lok := oracleFlattenSum(e.L, sign)
			rt, rc, rok := oracleFlattenSum(e.R, sign)
			c, ok := Add64(lc, rc)
			return append(lt, rt...), c, lok && rok && ok
		case OpSub:
			lt, lc, lok := oracleFlattenSum(e.L, sign)
			rt, rc, rok := oracleFlattenSum(e.R, -sign)
			c, ok := Add64(lc, rc)
			return append(lt, rt...), c, lok && rok && ok
		case OpMul:
			l := oracleSimplifyExpr(e.L)
			r := oracleSimplifyExpr(e.R)
			if li, ok := l.(IntLit); ok {
				if ri, ok := r.(IntLit); ok {
					if p, ok := Mul64(li.Value, ri.Value); ok {
						c, ok := Mul64(sign, p)
						return nil, c, ok
					}
					return []oracleSignedTerm{{e: Bin{Op: OpMul, L: l, R: r}, sign: sign}}, 0, true
				}
				if li.Value == 0 && !exprMayFail(r) {
					return nil, 0, true
				}
				if li.Value == 1 {
					return []oracleSignedTerm{{e: r, sign: sign}}, 0, true
				}
			}
			if ri, ok := r.(IntLit); ok {
				if ri.Value == 0 && !exprMayFail(l) {
					return nil, 0, true
				}
				if ri.Value == 1 {
					return []oracleSignedTerm{{e: l, sign: sign}}, 0, true
				}
			}
			return []oracleSignedTerm{{e: Bin{Op: OpMul, L: l, R: r}, sign: sign}}, 0, true
		}
	case ArrayRead:
		return []oracleSignedTerm{{e: ArrayRead{Array: e.Array, Index: oracleSimplifyExpr(e.Index)}, sign: sign}}, 0, true
	}
	return []oracleSignedTerm{{e: e, sign: sign}}, 0, true
}
