package symtab

import (
	"slices"
	"strconv"

	"repro/internal/lang"
)

// Canonicalizer computes the name-insensitive structural fingerprint of
// (lowered) transactions. Two transactions canonicalize to the same key
// exactly when they differ only in their transaction name, parameter
// names, temporary names, and database object names: parameters are
// encoded by declaration position, temporaries and objects by first
// occurrence in a fixed depth-first walk of the body. The objects are
// reported in that first-occurrence order, so two transactions with equal
// keys are isomorphic under the positional object mapping
// objs_a[i] ↔ objs_b[i] (and likewise for parameters by position).
//
// The key is the exact canonical encoding, not a digest: equal keys imply
// isomorphic structure with no collision risk, and map lookups hash it
// internally. The artifact cache (internal/workload) keys shared symbolic
// tables and guard preprocessing on it.
//
// A Canonicalizer keeps its name tables and its object list between
// calls: registration canonicalizes every class it is sent, and nine in ten
// of them only to find their family already analysed. The zero value is
// ready for use; it is not safe for concurrent use.
type Canonicalizer struct {
	b     []byte
	t     *lang.Transaction
	temps map[string]int
	objs  map[lang.ObjID]int
	order []lang.ObjID
}

// AppendKey fingerprints t: it appends the key to dst and returns the
// objects in first-occurrence order. The object list is the
// canonicalizer's own storage, valid until its next call: a caller that
// keeps it copies it. The transaction should already be lowered (no L++
// arrays); array forms are still encoded structurally so the function is
// total, with array names canonicalized by declaration position.
func (e *Canonicalizer) AppendKey(dst []byte, t *lang.Transaction) (key []byte, objs []lang.ObjID) {
	if e.temps == nil {
		e.temps, e.objs = make(map[string]int), make(map[lang.ObjID]int)
	}
	clear(e.temps)
	clear(e.objs)
	e.t, e.b, e.order = t, dst, e.order[:0]
	e.str("P")
	e.num(int64(len(t.Params)))
	for _, a := range t.Arrays {
		e.str("|A")
		e.num(a.Len)
		e.str("x")
		e.num(a.Cols)
	}
	e.str("|")
	e.cmd(t.Body)
	key, e.t, e.b = e.b, nil, nil
	return key, e.order
}

// str appends s; num appends a decimal.
func (e *Canonicalizer) str(s string) { e.b = append(e.b, s...) }
func (e *Canonicalizer) num(n int64)  { e.b = strconv.AppendInt(e.b, n, 10) }

func (e *Canonicalizer) obj(o lang.ObjID) {
	idx, ok := e.objs[o]
	if !ok {
		idx = len(e.objs)
		e.objs[o] = idx
		e.order = append(e.order, o)
	}
	e.num(int64(idx))
}

func (e *Canonicalizer) temp(name string) {
	idx, ok := e.temps[name]
	if !ok {
		idx = len(e.temps)
		e.temps[name] = idx
	}
	e.num(int64(idx))
}

// param appends name's declaration position, array likewise; -1 for a
// name never declared, which can then only split families. Both lists are
// a handful of names: a scan beats a set.
func (e *Canonicalizer) param(name string) { e.num(int64(slices.Index(e.t.Params, name))) }

func (e *Canonicalizer) array(name string) {
	e.num(int64(slices.IndexFunc(e.t.Arrays, func(a lang.ArrayDecl) bool { return a.Name == name })))
}

func (e *Canonicalizer) expr(x lang.Expr) {
	switch v := x.(type) {
	case lang.IntLit:
		e.str("i")
		e.num(v.Value)
	case lang.Param:
		e.str("p")
		e.param(v.Name)
	case lang.TempVar:
		e.str("t")
		e.temp(v.Name)
	case lang.Read:
		e.str("r")
		e.obj(v.Obj)
	case lang.ArrayRead:
		e.str("R")
		e.array(v.Array)
		e.str("(")
		e.expr(v.Index)
		e.str(")")
	case lang.Neg:
		e.str("n(")
		e.expr(v.E)
		e.str(")")
	case lang.Bin:
		e.str("b")
		e.num(int64(v.Op))
		e.str("(")
		e.expr(v.L)
		e.str(",")
		e.expr(v.R)
		e.str(")")
	default:
		// Future node kinds must not silently alias distinct structures:
		// fall back to the node's own rendering (name-sensitive, so it can
		// only split families, never merge them incorrectly).
		e.str(x.String())
	}
}

func (e *Canonicalizer) boolExpr(x lang.BoolExpr) {
	switch v := x.(type) {
	case lang.BoolLit:
		if v.Value {
			e.str("T")
		} else {
			e.str("F")
		}
	case lang.Cmp:
		e.str("c")
		e.num(int64(v.Op))
		e.str("(")
		e.expr(v.L)
		e.str(",")
		e.expr(v.R)
		e.str(")")
	case lang.And:
		e.str("&(")
		e.boolExpr(v.L)
		e.str(",")
		e.boolExpr(v.R)
		e.str(")")
	case lang.Or:
		e.str("|(")
		e.boolExpr(v.L)
		e.str(",")
		e.boolExpr(v.R)
		e.str(")")
	case lang.Not:
		e.str("!(")
		e.boolExpr(v.B)
		e.str(")")
	default:
		e.str(x.String())
	}
}

func (e *Canonicalizer) cmd(c lang.Cmd) {
	switch v := c.(type) {
	case lang.Skip:
		e.str("s;")
	case lang.Assign:
		e.str("a")
		e.temp(v.Var)
		e.str("=")
		e.expr(v.E)
		e.str(";")
	case lang.Seq:
		e.cmd(v.First)
		e.cmd(v.Rest)
	case lang.If:
		e.str("I(")
		e.boolExpr(v.Cond)
		e.str("){")
		e.cmd(v.Then)
		e.str("}{")
		e.cmd(v.Else)
		e.str("}")
	case lang.WriteCmd:
		e.str("w")
		e.obj(v.Obj)
		e.str("=")
		e.expr(v.E)
		e.str(";")
	case lang.ArrayWrite:
		e.str("W")
		e.array(v.Array)
		e.str("(")
		e.expr(v.Index)
		e.str(")=")
		e.expr(v.E)
		e.str(";")
	case lang.PrintCmd:
		e.str("P(")
		e.expr(v.E)
		e.str(");")
	default:
		e.str(c.String())
	}
}
