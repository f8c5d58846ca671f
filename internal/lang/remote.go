package lang

import (
	"sort"
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
// replicated object are shared with t, not copied.
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

// The rewriter's walks return the node they were given, and false, when
// nothing beneath it reads or writes a replicated object.

func (rw *replicaRewriter) expr(e Expr) (Expr, bool) {
	switch n := e.(type) {
	case Read:
		if rw.replicated[n.Obj] {
			return rw.logicalRead(n.Obj), true
		}
	case ArrayRead:
		if idx, changed := rw.expr(n.Index); changed {
			return ArrayRead{Array: n.Array, Index: idx}, true
		}
	case Neg:
		if inner, changed := rw.expr(n.E); changed {
			return Neg{E: inner}, true
		}
	case Bin:
		l, lc := rw.expr(n.L)
		r, rc := rw.expr(n.R)
		if lc || rc {
			return Bin{Op: n.Op, L: l, R: r}, true
		}
	}
	return e, false
}

func (rw *replicaRewriter) boolExpr(b BoolExpr) (BoolExpr, bool) {
	switch n := b.(type) {
	case Cmp:
		l, lc := rw.expr(n.L)
		r, rc := rw.expr(n.R)
		if lc || rc {
			return Cmp{Op: n.Op, L: l, R: r}, true
		}
	case And:
		l, lc := rw.boolExpr(n.L)
		r, rc := rw.boolExpr(n.R)
		if lc || rc {
			return And{L: l, R: r}, true
		}
	case Or:
		l, lc := rw.boolExpr(n.L)
		r, rc := rw.boolExpr(n.R)
		if lc || rc {
			return Or{L: l, R: r}, true
		}
	case Not:
		if inner, changed := rw.boolExpr(n.B); changed {
			return Not{B: inner}, true
		}
	}
	return b, false
}

func (rw *replicaRewriter) cmd(c Cmd) (Cmd, bool) {
	switch n := c.(type) {
	case Assign:
		if e, changed := rw.expr(n.E); changed {
			return Assign{Var: n.Var, E: e}, true
		}
	case Seq:
		first, fc := rw.cmd(n.First)
		rest, rc := rw.cmd(n.Rest)
		if fc || rc {
			return Seq{First: first, Rest: rest}, true
		}
	case If:
		cond, cc := rw.boolExpr(n.Cond)
		thenC, tc := rw.cmd(n.Then)
		elseC, ec := rw.cmd(n.Else)
		if cc || tc || ec {
			return If{Cond: cond, Then: thenC, Else: elseC}, true
		}
	case WriteCmd:
		rhs, changed := rw.expr(n.E)
		if !rw.replicated[n.Obj] {
			if changed {
				return WriteCmd{Obj: n.Obj, E: rhs}, true
			}
			break
		}
		// write(x = e)  =>  write(dx_site = e' - x - sum_{j != site} dx_j)
		// where e' is the rewritten expression.
		rhs = Bin{Op: OpSub, L: rhs, R: Read{Obj: n.Obj}}
		for j := 0; j < rw.nSites; j++ {
			if j == rw.site {
				continue
			}
			rhs = Bin{Op: OpSub, L: rhs, R: Read{Obj: DeltaObj(n.Obj, j)}}
		}
		return WriteCmd{Obj: DeltaObj(n.Obj, rw.site), E: rhs}, true
	case ArrayWrite:
		idx, ic := rw.expr(n.Index)
		e, ec := rw.expr(n.E)
		if ic || ec {
			return ArrayWrite{Array: n.Array, Index: idx, E: e}, true
		}
	case PrintCmd:
		if e, changed := rw.expr(n.E); changed {
			return PrintCmd{E: e}, true
		}
	}
	return c, false
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

// FoldDeltas merges every delta object into its base object and zeroes the
// deltas, producing the canonical database the paper's cleanup phase
// establishes at synchronization points ("we might initialize the dx
// objects to 0 and reset them to 0 at the end of each protocol round").
func FoldDeltas(d Database) Database {
	out := d.Clone()
	// Deterministic iteration order for reproducibility of downstream use.
	objs := make([]ObjID, 0, len(d))
	for k := range d {
		objs = append(objs, k)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, obj := range objs {
		if base, _, ok := IsDeltaObj(obj); ok {
			out[base] += out[obj]
			delete(out, obj)
		}
	}
	return out
}

// Simplify performs algebraic simplification on a transaction:
// constant folding, cancellation of syntactically identical added and
// subtracted subterms (which removes the read(x) round trips the replica
// rewrite introduces, as in Figure 23c), and neutral-element elimination.
// Subtrees with nothing to simplify are shared with t, not copied.
func Simplify(t *Transaction) *Transaction {
	var s simplifier
	body, _ := s.cmd(t.Body)
	return &Transaction{Name: t.Name, Params: t.Params, Arrays: t.Arrays, Body: body}
}

// SimplifyExpr simplifies an arithmetic expression by flattening it into a
// sum of signed terms, cancelling equal opposite terms, folding constants,
// and rebuilding a compact tree. An expression already in that form is
// returned as it is.
func SimplifyExpr(e Expr) Expr {
	var s simplifier
	out, _ := s.expr(e)
	return out
}

// simplifier is one simplification pass. Its walks return the node they
// were given, and false, when nothing beneath it simplifies.
type simplifier struct {
	// terms is a stack of summands: every expr call flattens onto the end
	// and pops what it pushed, so nested sums (the factors of a product, an
	// array index) share one allocation with the sum they are part of.
	terms []signedTerm
}

type signedTerm struct {
	e    Expr
	sign int64 // +1 or -1; 0 once cancelled
}

func (s *simplifier) cmd(c Cmd) (Cmd, bool) {
	switch n := c.(type) {
	case Assign:
		if e, changed := s.expr(n.E); changed {
			return Assign{Var: n.Var, E: e}, true
		}
	case Seq:
		first, fc := s.cmd(n.First)
		rest, rc := s.cmd(n.Rest)
		return reSeq(c, first, rest, fc || rc)
	case If:
		cond, cc := s.boolExpr(n.Cond)
		if lit, ok := cond.(BoolLit); ok {
			branch := n.Else
			if lit.Value {
				branch = n.Then
			}
			branch, _ = s.cmd(branch)
			return branch, true
		}
		thenC, tc := s.cmd(n.Then)
		elseC, ec := s.cmd(n.Else)
		if cc || tc || ec {
			return If{Cond: cond, Then: thenC, Else: elseC}, true
		}
	case WriteCmd:
		if e, changed := s.expr(n.E); changed {
			return WriteCmd{Obj: n.Obj, E: e}, true
		}
	case ArrayWrite:
		idx, ic := s.expr(n.Index)
		e, ec := s.expr(n.E)
		if ic || ec {
			return ArrayWrite{Array: n.Array, Index: idx, E: e}, true
		}
	case PrintCmd:
		if e, changed := s.expr(n.E); changed {
			return PrintCmd{E: e}, true
		}
	}
	return c, false
}

func (s *simplifier) boolExpr(b BoolExpr) (BoolExpr, bool) {
	switch n := b.(type) {
	case Cmp:
		l, lc := s.expr(n.L)
		r, rc := s.expr(n.R)
		if li, ok := l.(IntLit); ok {
			if ri, ok := r.(IntLit); ok {
				return BoolLit{Value: n.Op.Holds(li.Value, ri.Value)}, true
			}
		}
		if lc || rc {
			return Cmp{Op: n.Op, L: l, R: r}, true
		}
	case And:
		l, lc := s.boolExpr(n.L)
		r, rc := s.boolExpr(n.R)
		if lit, ok := l.(BoolLit); ok {
			if !lit.Value {
				return BoolLit{Value: false}, true
			}
			return r, true
		}
		if lit, ok := r.(BoolLit); ok {
			if !lit.Value {
				return BoolLit{Value: false}, true
			}
			return l, true
		}
		if lc || rc {
			return And{L: l, R: r}, true
		}
	case Or:
		l, lc := s.boolExpr(n.L)
		r, rc := s.boolExpr(n.R)
		if lit, ok := l.(BoolLit); ok {
			if lit.Value {
				return BoolLit{Value: true}, true
			}
			return r, true
		}
		if lit, ok := r.(BoolLit); ok {
			if lit.Value {
				return BoolLit{Value: true}, true
			}
			return l, true
		}
		if lc || rc {
			return Or{L: l, R: r}, true
		}
	case Not:
		inner, changed := s.boolExpr(n.B)
		if lit, ok := inner.(BoolLit); ok {
			return BoolLit{Value: !lit.Value}, true
		}
		if changed {
			return Not{B: inner}, true
		}
	}
	return b, false
}

func (s *simplifier) expr(e Expr) (Expr, bool) {
	start := len(s.terms)
	c := s.flatten(e, 1)
	out, changed := sumOf(e, s.terms[start:], c)
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
	if c > 0 {
		out = Bin{Op: OpAdd, L: out, R: IntLit{Value: c}}
	} else if c < 0 {
		out = Bin{Op: OpSub, L: out, R: IntLit{Value: -c}}
	}
	return out, true
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
		if lit, ok := b.R.(IntLit); !ok || (c > 0 && (b.Op != OpAdd || lit.Value != c)) ||
			(c < 0 && (b.Op != OpSub || lit.Value != -c)) {
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
// pushed onto s.terms, plus the constant it returns. Products and other
// non-additive nodes are kept whole (after recursive simplification of
// their children).
func (s *simplifier) flatten(e Expr, sign int64) int64 {
	switch n := e.(type) {
	case IntLit:
		return sign * n.Value
	case Neg:
		return s.flatten(n.E, -sign)
	case Bin:
		switch n.Op {
		case OpAdd, OpSub:
			lc := s.flatten(n.L, sign)
			if n.Op == OpSub {
				sign = -sign
			}
			return lc + s.flatten(n.R, sign)
		case OpMul:
			l, lch := s.expr(n.L)
			r, rch := s.expr(n.R)
			if li, ok := l.(IntLit); ok {
				if ri, ok := r.(IntLit); ok {
					return sign * li.Value * ri.Value
				}
				if li.Value == 0 {
					return 0
				}
				if li.Value == 1 {
					s.terms = append(s.terms, signedTerm{e: r, sign: sign})
					return 0
				}
			}
			if ri, ok := r.(IntLit); ok {
				if ri.Value == 0 {
					return 0
				}
				if ri.Value == 1 {
					s.terms = append(s.terms, signedTerm{e: l, sign: sign})
					return 0
				}
			}
			if lch || rch {
				e = Bin{Op: OpMul, L: l, R: r}
			}
		}
	case ArrayRead:
		if idx, changed := s.expr(n.Index); changed {
			e = ArrayRead{Array: n.Array, Index: idx}
		}
	}
	s.terms = append(s.terms, signedTerm{e: e, sign: sign})
	return 0
}
