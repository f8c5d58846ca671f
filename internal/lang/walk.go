package lang

// pass is one traversal of L's trees: the replica rewrite, the
// simplification, the lowering, and the passes that only look (Footprint
// and the lowering's collection of the temporaries a source names). Each
// method returns the node it was given, and false, when nothing beneath
// it changed. A pass handles the nodes it cares about and hands every
// other node to mapExpr, mapBool or mapCmd, which apply it to the node's
// direct children and rebuild the node only when a child changed (a
// sequence through reSeq, so a skip half is dropped as SeqOf drops it).
// A pass is an interface, not a struct of func fields: each method value
// bound into such a struct is a heap object of its own.
type pass interface {
	expr(Expr) (Expr, bool)
	boolExpr(BoolExpr) (BoolExpr, bool)
	cmd(Cmd) (Cmd, bool)
}

func mapExpr(p pass, e Expr) (Expr, bool) {
	switch n := e.(type) {
	case ArrayRead:
		if idx, changed := p.expr(n.Index); changed {
			return ArrayRead{Array: n.Array, Index: idx}, true
		}
	case Neg:
		if inner, changed := p.expr(n.E); changed {
			return Neg{E: inner}, true
		}
	case Bin:
		l, lc := p.expr(n.L)
		r, rc := p.expr(n.R)
		if lc || rc {
			return Bin{Op: n.Op, L: l, R: r}, true
		}
	}
	return e, false
}

func mapBool(p pass, b BoolExpr) (BoolExpr, bool) {
	switch n := b.(type) {
	case Cmp:
		l, lc := p.expr(n.L)
		r, rc := p.expr(n.R)
		if lc || rc {
			return Cmp{Op: n.Op, L: l, R: r}, true
		}
	case And:
		l, lc := p.boolExpr(n.L)
		r, rc := p.boolExpr(n.R)
		if lc || rc {
			return And{L: l, R: r}, true
		}
	case Or:
		l, lc := p.boolExpr(n.L)
		r, rc := p.boolExpr(n.R)
		if lc || rc {
			return Or{L: l, R: r}, true
		}
	case Not:
		if inner, changed := p.boolExpr(n.B); changed {
			return Not{B: inner}, true
		}
	}
	return b, false
}

func mapCmd(p pass, c Cmd) (Cmd, bool) {
	switch n := c.(type) {
	case Assign:
		if e, changed := p.expr(n.E); changed {
			return Assign{Var: n.Var, E: e}, true
		}
	case Seq:
		first, fc := p.cmd(n.First)
		rest, rc := p.cmd(n.Rest)
		return reSeq(c, first, rest, fc || rc)
	case If:
		cond, cc := p.boolExpr(n.Cond)
		thenC, tc := p.cmd(n.Then)
		elseC, ec := p.cmd(n.Else)
		if cc || tc || ec {
			return If{Cond: cond, Then: thenC, Else: elseC}, true
		}
	case WriteCmd:
		if e, changed := p.expr(n.E); changed {
			return WriteCmd{Obj: n.Obj, E: e}, true
		}
	case ArrayWrite:
		idx, ic := p.expr(n.Index)
		e, ec := p.expr(n.E)
		if ic || ec {
			return ArrayWrite{Array: n.Array, Index: idx, E: e}, true
		}
	case PrintCmd:
		if e, changed := p.expr(n.E); changed {
			return PrintCmd{E: e}, true
		}
	}
	return c, false
}

// footprint is the pass behind Footprint. It changes nothing.
type footprint struct {
	arrays        []ArrayDecl
	reads, writes map[ObjID]bool
}

// Footprint returns the database objects read and written anywhere in the
// command, in both branches of every conditional. An L++ array access
// reports every cell of its array, as the lowered form touches them: a
// read as reads, a write as reads and writes.
func Footprint(c Cmd, arrays []ArrayDecl) (reads, writes map[ObjID]bool) {
	f := &footprint{arrays: arrays, reads: make(map[ObjID]bool), writes: make(map[ObjID]bool)}
	f.cmd(c)
	return f.reads, f.writes
}

// cells marks every cell of array a in set.
func (f *footprint) cells(set map[ObjID]bool, a string) {
	for _, d := range f.arrays {
		if d.Name == a {
			for i := int64(0); i < d.Len*d.Cols; i++ {
				set[ArrayObj(d.Name, i)] = true
			}
		}
	}
}

func (f *footprint) expr(e Expr) (Expr, bool) {
	switch n := e.(type) {
	case Read:
		f.reads[n.Obj] = true
	case ArrayRead:
		f.cells(f.reads, n.Array)
	}
	return mapExpr(f, e)
}

func (f *footprint) boolExpr(b BoolExpr) (BoolExpr, bool) { return mapBool(f, b) }

func (f *footprint) cmd(c Cmd) (Cmd, bool) {
	switch n := c.(type) {
	case WriteCmd:
		f.writes[n.Obj] = true
	case ArrayWrite:
		f.cells(f.reads, n.Array)
		f.cells(f.writes, n.Array)
	}
	return mapCmd(f, c)
}
