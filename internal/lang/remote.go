package lang

import (
	"math"
	"strconv"
)

// This file implements the Appendix B transformation that eliminates
// remote writes so Assumption 3.1 (All Writes Are Local) holds, the common
// case being full replication.
//
// For each replicated object x and each site i that writes it, a fresh
// delta object dx_i local to site i is introduced. Every read(x) in any
// transaction becomes read(x) + sum_j read(dx_j); every write(x = e) in a
// transaction running on site i becomes
//
//	write(dx_i = e - read(x) - sum_{j != i} read(dx_j))
//
// After the rewrite, an algebraic simplification pass cancels the
// read(x) + sum dx_j terms that the substitution introduces, which is what
// lets the transformed transaction avoid remote reads entirely when the
// write expression was a delta of the original value (Figure 23c).

// DeltaObj returns the name of the delta object for x at site i. Folds
// and unit installation build these names for every object × site pair,
// so the name is assembled directly rather than through fmt.
//
//homeo:hotpath
func DeltaObj(x ObjID, site int) ObjID {
	b := make([]byte, 0, len(x)+2+20)
	b = append(b, x...)
	b = append(b, '@', 'd')
	b = strconv.AppendInt(b, int64(site), 10)
	return ObjID(b)
}

// DeltaObjs returns x's delta object at each of nSites sites, for callers
// that visit them often enough to build the names once.
func DeltaObjs(x ObjID, nSites int) []ObjID {
	return AppendDeltaObjs(make([]ObjID, 0, nSites), x, 0, nSites)
}

// AppendDeltaObjs appends x's delta objects at sites from through to-1.
// The names are cut from one string, so however many sites there are they
// cost one allocation.
func AppendDeltaObjs(dst []ObjID, x ObjID, from, to int) []ObjID {
	var buf [128]byte
	b := buf[:0]
	for k := from; k < to; k++ {
		b = append(b, x...)
		b = append(b, '@', 'd')
		b = strconv.AppendInt(b, int64(k), 10)
	}
	all := ObjID(b)
	for k := from; k < to; k++ {
		n := len(x) + 3
		for d := k; d >= 10; d /= 10 {
			n++
		}
		dst = append(dst, all[:n])
		all = all[n:]
	}
	return dst
}

// IsDeltaObj reports whether obj is a delta object, and if so for which
// base object and site.
func IsDeltaObj(obj ObjID) (base ObjID, site int, ok bool) {
	s := string(obj)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '@' {
			if i+2 <= len(s) && s[i+1] == 'd' {
				n := 0
				for j := i + 2; j < len(s); j++ {
					if s[j] < '0' || s[j] > '9' {
						return "", 0, false
					}
					n = n*10 + int(s[j]-'0')
				}
				if i+2 == len(s) {
					return "", 0, false
				}
				return ObjID(s[:i]), n, true
			}
			return "", 0, false
		}
	}
	return "", 0, false
}

// ReplicaRewrite rewrites transaction t, which runs on the given site, for
// a system where every object in replicated is replicated across sites
// 0..nSites-1. Objects not in replicated are left untouched. The returned
// transaction satisfies Assumption 3.1 with respect to the replicated
// objects: it writes only site-local delta objects. Subtrees that touch no
// replicated object are shared with t, not copied; a sequence with a skip
// half is rebuilt without it, as in every pass of the walk.
func ReplicaRewrite(t *Transaction, site, nSites int, replicated map[ObjID]bool) *Transaction {
	rw := &replicaRewriter{site: site, nSites: nSites, replicated: replicated}
	body, _ := rw.cmd(t.Body)
	return &Transaction{Name: t.Name, Params: t.Params, Arrays: t.Arrays, Body: body}
}

type replicaRewriter struct {
	site       int
	nSites     int
	replicated map[ObjID]bool
}

// logicalRead builds read(x) + sum_j read(dx_j): the logical current value
// of a replicated object.
func (rw *replicaRewriter) logicalRead(x ObjID) Expr {
	var e Expr = Read{Obj: x}
	for j := 0; j < rw.nSites; j++ {
		e = Bin{Op: OpAdd, L: e, R: Read{Obj: DeltaObj(x, j)}}
	}
	return e
}

// The rewriter handles a read of a replicated object and a write to one;
// the walk carries it through every other node.

func (rw *replicaRewriter) expr(e Expr) (Expr, bool) {
	if n, ok := e.(Read); ok && rw.replicated[n.Obj] {
		return rw.logicalRead(n.Obj), true
	}
	return mapExpr(rw, e)
}

func (rw *replicaRewriter) boolExpr(b BoolExpr) (BoolExpr, bool) { return mapBool(rw, b) }

func (rw *replicaRewriter) cmd(c Cmd) (Cmd, bool) {
	n, ok := c.(WriteCmd)
	if !ok || !rw.replicated[n.Obj] {
		return mapCmd(rw, c)
	}
	// write(x = e)  =>  write(dx_site = e' - x - sum_{j != site} dx_j)
	// where e' is the rewritten expression.
	rhs, _ := rw.expr(n.E)
	rhs = Bin{Op: OpSub, L: rhs, R: Read{Obj: n.Obj}}
	for j := 0; j < rw.nSites; j++ {
		if j == rw.site {
			continue
		}
		rhs = Bin{Op: OpSub, L: rhs, R: Read{Obj: DeltaObj(n.Obj, j)}}
	}
	return WriteCmd{Obj: DeltaObj(n.Obj, rw.site), E: rhs}, true
}

// LogicalValue computes the logical value of a replicated object from a
// database containing base and delta objects.
func LogicalValue(d Database, x ObjID, nSites int) int64 {
	v := d.Get(x)
	for j := 0; j < nSites; j++ {
		v += d.Get(DeltaObj(x, j))
	}
	return v
}

// Simplify performs algebraic simplification on a transaction:
// constant folding, cancellation of syntactically identical added and
// subtracted subterms (which removes the read(x) round trips the replica
// rewrite introduces, as in Figure 23c), and neutral-element elimination.
// Subtrees with nothing to simplify are shared with t, not copied. The
// arithmetic is checked as EvalExpr's is: a sum whose constants leave
// int64 is not simplified, and neither a constant side of a connective
// nor a zero factor absorbs an operand whose evaluation may fail.
func Simplify(t *Transaction) *Transaction {
	body, _ := newSimplifier().cmd(t.Body)
	return &Transaction{Name: t.Name, Params: t.Params, Arrays: t.Arrays, Body: body}
}

// SimplifyExpr simplifies an arithmetic expression by flattening it into a
// sum of signed terms, cancelling equal opposite terms, folding constants,
// and rebuilding a compact tree. An expression already in that form is
// returned as it is.
func SimplifyExpr(e Expr) Expr {
	out, _ := newSimplifier().expr(e)
	return out
}

// simplifier is one simplification pass: it folds a conditional on a
// constant and a comparison or connective of constants once the walk has
// simplified their children, and simplifies every arithmetic expression by
// flattening it into a sum.
type simplifier struct {
	// terms is a stack of summands: every expr call flattens onto the end
	// and pops what it pushed, so nested sums (the factors of a product, an
	// array index) share one allocation with the sum they are part of. It
	// starts in buf: the pass is a heap object, as the walk's interface
	// makes it, and the summands in flight rarely outgrow it.
	terms []signedTerm
	buf   [16]signedTerm
}

func newSimplifier() *simplifier {
	s := new(simplifier)
	s.terms = s.buf[:0]
	return s
}

type signedTerm struct {
	e    Expr
	sign int64 // +1 or -1; 0 once cancelled
}

func (s *simplifier) cmd(c Cmd) (Cmd, bool) {
	out, changed := mapCmd(s, c)
	if n, ok := out.(If); ok {
		if lit, ok := n.Cond.(BoolLit); ok {
			if lit.Value {
				return n.Then, true
			}
			return n.Else, true
		}
	}
	return out, changed
}

func (s *simplifier) boolExpr(b BoolExpr) (BoolExpr, bool) {
	out, changed := mapBool(s, b)
	switch n := out.(type) {
	case Cmp:
		if li, ok := n.L.(IntLit); ok {
			if ri, ok := n.R.(IntLit); ok {
				return BoolLit{Value: n.Op.Holds(li.Value, ri.Value)}, true
			}
		}
	case And:
		if folded, ok := guardJunction(n.L, n.R, false); ok {
			return folded, true
		}
	case Or:
		if folded, ok := guardJunction(n.L, n.R, true); ok {
			return folded, true
		}
	case Not:
		if lit, ok := n.B.(BoolLit); ok {
			return BoolLit{Value: !lit.Value}, true
		}
	}
	return out, changed
}

// junction folds a conjunction (absorbing false) or a disjunction
// (absorbing true) with a constant side: the absorbing constant, or the
// other side.
func junction(l, r BoolExpr, absorbing bool) (BoolExpr, bool) {
	if lit, ok := l.(BoolLit); ok {
		if lit.Value == absorbing {
			return lit, true
		}
		return r, true
	}
	if lit, ok := r.(BoolLit); ok {
		if lit.Value == absorbing {
			return lit, true
		}
		return l, true
	}
	return nil, false
}

func (s *simplifier) expr(e Expr) (Expr, bool) {
	start := len(s.terms)
	c, exact := s.flatten(e, 1)
	out, changed := e, false
	if exact {
		out, changed = sumOf(e, s.terms[start:], c)
	}
	s.terms = s.terms[:start]
	return out, changed
}

// sumOf builds the simplified form of e from its flattened terms (which it
// reorders in place) and constant: e itself when that is what it would
// build.
func sumOf(e Expr, terms []signedTerm, c int64) (Expr, bool) {
	// Cancel pairs of identical terms with opposite signs. Nodes are
	// comparable values, so == is structural equality.
	kept := terms[:0]
	for i := range terms {
		if terms[i].sign == 0 {
			continue
		}
		for j := i + 1; j < len(terms); j++ {
			if terms[j].sign == -terms[i].sign && terms[j].e == terms[i].e {
				terms[i].sign, terms[j].sign = 0, 0
				break
			}
		}
		if terms[i].sign != 0 {
			kept = append(kept, terms[i])
		}
	}
	if sameSum(e, kept, c) {
		return e, false
	}
	var out Expr
	for _, t := range kept {
		switch {
		case out == nil && t.sign < 0:
			out = Neg{E: t.e}
		case out == nil:
			out = t.e
		case t.sign < 0:
			out = Bin{Op: OpSub, L: out, R: t.e}
		default:
			out = Bin{Op: OpAdd, L: out, R: t.e}
		}
	}
	if out == nil {
		return IntLit{Value: c}, true
	}
	if c != 0 {
		op, lit := constStep(c)
		out = Bin{Op: op, L: out, R: IntLit{Value: lit}}
	}
	return out, true
}

// constStep is how a sum adds its constant c: as a subtraction of -c when
// c is negative, unless -c leaves int64.
func constStep(c int64) (BinOp, int64) {
	if c < 0 && c != math.MinInt64 {
		return OpSub, -c
	}
	return OpAdd, c
}

// sameSum reports whether e already is the tree sumOf builds from the kept
// terms and the constant c: the terms chained to the left in order, the
// first negated when its sign says so, the constant last. It walks e's left
// spine from the top against the summands from the last.
func sameSum(e Expr, kept []signedTerm, c int64) bool {
	if len(kept) == 0 {
		lit, ok := e.(IntLit)
		return ok && lit.Value == c
	}
	node := e
	if c != 0 {
		b, ok := node.(Bin)
		if !ok {
			return false
		}
		op, v := constStep(c)
		if lit, ok := b.R.(IntLit); !ok || b.Op != op || lit.Value != v {
			return false
		}
		node = b.L
	}
	for i := len(kept) - 1; i > 0; i-- {
		op := OpAdd
		if kept[i].sign < 0 {
			op = OpSub
		}
		b, ok := node.(Bin)
		if !ok || b.Op != op || b.R != kept[i].e {
			return false
		}
		node = b.L
	}
	if kept[0].sign < 0 {
		neg, ok := node.(Neg)
		return ok && neg.E == kept[0].e
	}
	return node == kept[0].e
}

// flatten decomposes e (scaled by sign) into non-constant signed terms,
// pushed onto s.terms, plus the constant it returns, and reports whether
// that constant is exact: false once a step of summing or scaling the
// constants leaves int64. Products and other non-additive nodes are kept
// whole (after recursive simplification of their children), a product of
// literals that leaves int64 included, so it fails where the source does.
func (s *simplifier) flatten(e Expr, sign int64) (int64, bool) {
	switch n := e.(type) {
	case IntLit:
		return Mul64(sign, n.Value)
	case Neg:
		return s.flatten(n.E, -sign)
	case Bin:
		switch n.Op {
		case OpAdd, OpSub:
			lc, lok := s.flatten(n.L, sign)
			if n.Op == OpSub {
				sign = -sign
			}
			rc, rok := s.flatten(n.R, sign)
			c, ok := Add64(lc, rc)
			return c, lok && rok && ok
		case OpMul:
			l, lch := s.expr(n.L)
			r, rch := s.expr(n.R)
			li, lok := l.(IntLit)
			ri, rok := r.(IntLit)
			if lok && rok {
				if p, ok := Mul64(li.Value, ri.Value); ok {
					return Mul64(sign, p)
				}
			}
			switch {
			case lok && rok:
			case lok && li.Value == 0 && !exprMayFail(r), rok && ri.Value == 0 && !exprMayFail(l):
				return 0, true
			case lok && li.Value == 1:
				s.terms = append(s.terms, signedTerm{e: r, sign: sign})
				return 0, true
			case rok && ri.Value == 1:
				s.terms = append(s.terms, signedTerm{e: l, sign: sign})
				return 0, true
			}
			if lch || rch {
				e = Bin{Op: OpMul, L: l, R: r}
			}
		}
	default:
		e, _ = mapExpr(s, e)
	}
	s.terms = append(s.terms, signedTerm{e: e, sign: sign})
	return 0, true
}
