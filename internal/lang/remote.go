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
	out := make([]ObjID, nSites)
	for k := range out {
		out[k] = DeltaObj(x, k)
	}
	return out
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
// objects: it writes only site-local delta objects.
func ReplicaRewrite(t *Transaction, site, nSites int, replicated map[ObjID]bool) *Transaction {
	rw := &replicaRewriter{site: site, nSites: nSites, replicated: replicated}
	out := &Transaction{
		Name:   t.Name,
		Params: t.Params,
		Arrays: t.Arrays,
		Body:   rw.cmd(t.Body),
	}
	return out
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

func (rw *replicaRewriter) expr(e Expr) Expr {
	switch e := e.(type) {
	case Read:
		if rw.replicated[e.Obj] {
			return rw.logicalRead(e.Obj)
		}
		return e
	case ArrayRead:
		return ArrayRead{Array: e.Array, Index: rw.expr(e.Index)}
	case Neg:
		return Neg{E: rw.expr(e.E)}
	case Bin:
		return Bin{Op: e.Op, L: rw.expr(e.L), R: rw.expr(e.R)}
	default:
		return e
	}
}

func (rw *replicaRewriter) boolExpr(b BoolExpr) BoolExpr {
	switch b := b.(type) {
	case Cmp:
		return Cmp{Op: b.Op, L: rw.expr(b.L), R: rw.expr(b.R)}
	case And:
		return And{L: rw.boolExpr(b.L), R: rw.boolExpr(b.R)}
	case Or:
		return Or{L: rw.boolExpr(b.L), R: rw.boolExpr(b.R)}
	case Not:
		return Not{B: rw.boolExpr(b.B)}
	default:
		return b
	}
}

func (rw *replicaRewriter) cmd(c Cmd) Cmd {
	switch c := c.(type) {
	case Assign:
		return Assign{Var: c.Var, E: rw.expr(c.E)}
	case Seq:
		return Seq{First: rw.cmd(c.First), Rest: rw.cmd(c.Rest)}
	case If:
		return If{Cond: rw.boolExpr(c.Cond), Then: rw.cmd(c.Then), Else: rw.cmd(c.Else)}
	case WriteCmd:
		if !rw.replicated[c.Obj] {
			return WriteCmd{Obj: c.Obj, E: rw.expr(c.E)}
		}
		// write(x = e)  =>  write(dx_site = e' - x - sum_{j != site} dx_j)
		// where e' is the rewritten expression.
		rhs := rw.expr(c.E)
		rhs = Bin{Op: OpSub, L: rhs, R: Read{Obj: c.Obj}}
		for j := 0; j < rw.nSites; j++ {
			if j == rw.site {
				continue
			}
			rhs = Bin{Op: OpSub, L: rhs, R: Read{Obj: DeltaObj(c.Obj, j)}}
		}
		return WriteCmd{Obj: DeltaObj(c.Obj, rw.site), E: rhs}
	case ArrayWrite:
		return ArrayWrite{Array: c.Array, Index: rw.expr(c.Index), E: rw.expr(c.E)}
	case PrintCmd:
		return PrintCmd{E: rw.expr(c.E)}
	default:
		return c
	}
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
func Simplify(t *Transaction) *Transaction {
	return &Transaction{
		Name:   t.Name,
		Params: t.Params,
		Arrays: t.Arrays,
		Body:   simplifyCmd(t.Body),
	}
}

func simplifyCmd(c Cmd) Cmd {
	switch c := c.(type) {
	case Assign:
		return Assign{Var: c.Var, E: SimplifyExpr(c.E)}
	case Seq:
		return SeqOf(simplifyCmd(c.First), simplifyCmd(c.Rest))
	case If:
		cond := simplifyBool(c.Cond)
		if lit, ok := cond.(BoolLit); ok {
			if lit.Value {
				return simplifyCmd(c.Then)
			}
			return simplifyCmd(c.Else)
		}
		return If{Cond: cond, Then: simplifyCmd(c.Then), Else: simplifyCmd(c.Else)}
	case WriteCmd:
		return WriteCmd{Obj: c.Obj, E: SimplifyExpr(c.E)}
	case ArrayWrite:
		return ArrayWrite{Array: c.Array, Index: SimplifyExpr(c.Index), E: SimplifyExpr(c.E)}
	case PrintCmd:
		return PrintCmd{E: SimplifyExpr(c.E)}
	default:
		return c
	}
}

func simplifyBool(b BoolExpr) BoolExpr {
	switch b := b.(type) {
	case Cmp:
		l, r := SimplifyExpr(b.L), SimplifyExpr(b.R)
		if li, ok := l.(IntLit); ok {
			if ri, ok := r.(IntLit); ok {
				return BoolLit{Value: b.Op.Holds(li.Value, ri.Value)}
			}
		}
		return Cmp{Op: b.Op, L: l, R: r}
	case And:
		l, r := simplifyBool(b.L), simplifyBool(b.R)
		if lit, ok := l.(BoolLit); ok {
			if !lit.Value {
				return BoolLit{Value: false}
			}
			return r
		}
		if lit, ok := r.(BoolLit); ok {
			if !lit.Value {
				return BoolLit{Value: false}
			}
			return l
		}
		return And{L: l, R: r}
	case Or:
		l, r := simplifyBool(b.L), simplifyBool(b.R)
		if lit, ok := l.(BoolLit); ok {
			if lit.Value {
				return BoolLit{Value: true}
			}
			return r
		}
		if lit, ok := r.(BoolLit); ok {
			if lit.Value {
				return BoolLit{Value: true}
			}
			return l
		}
		return Or{L: l, R: r}
	case Not:
		inner := simplifyBool(b.B)
		if lit, ok := inner.(BoolLit); ok {
			return BoolLit{Value: !lit.Value}
		}
		return Not{B: inner}
	default:
		return b
	}
}

// SimplifyExpr simplifies an arithmetic expression by flattening it into a
// sum of signed terms, cancelling equal opposite terms, folding constants,
// and rebuilding a compact tree.
func SimplifyExpr(e Expr) Expr {
	terms, c := flattenSum(e, 1)
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
	if c > 0 {
		out = Bin{Op: OpAdd, L: out, R: IntLit{Value: c}}
	} else if c < 0 {
		out = Bin{Op: OpSub, L: out, R: IntLit{Value: -c}}
	}
	return out
}

type signedTerm struct {
	e    Expr
	sign int64 // +1 or -1
}

// flattenSum decomposes e (scaled by sign) into non-constant signed terms
// plus a constant. Products and other non-additive nodes are kept whole
// (after recursive simplification of their children).
func flattenSum(e Expr, sign int64) ([]signedTerm, int64) {
	switch e := e.(type) {
	case IntLit:
		return nil, sign * e.Value
	case Neg:
		return flattenSum(e.E, -sign)
	case Bin:
		switch e.Op {
		case OpAdd:
			lt, lc := flattenSum(e.L, sign)
			rt, rc := flattenSum(e.R, sign)
			return append(lt, rt...), lc + rc
		case OpSub:
			lt, lc := flattenSum(e.L, sign)
			rt, rc := flattenSum(e.R, -sign)
			return append(lt, rt...), lc + rc
		case OpMul:
			l := SimplifyExpr(e.L)
			r := SimplifyExpr(e.R)
			if li, ok := l.(IntLit); ok {
				if ri, ok := r.(IntLit); ok {
					return nil, sign * li.Value * ri.Value
				}
				if li.Value == 0 {
					return nil, 0
				}
				if li.Value == 1 {
					return []signedTerm{{e: r, sign: sign}}, 0
				}
			}
			if ri, ok := r.(IntLit); ok {
				if ri.Value == 0 {
					return nil, 0
				}
				if ri.Value == 1 {
					return []signedTerm{{e: l, sign: sign}}, 0
				}
			}
			return []signedTerm{{e: Bin{Op: OpMul, L: l, R: r}, sign: sign}}, 0
		}
	case ArrayRead:
		return []signedTerm{{e: ArrayRead{Array: e.Array, Index: SimplifyExpr(e.Index)}, sign: sign}}, 0
	}
	return []signedTerm{{e: e, sign: sign}}, 0
}
