// Package symtab implements symbolic tables (Sections 2.2-2.3 of the
// Homeostasis paper): for a transaction T, a set of pairs (guard,
// residual) where guard is a boolean expression of L over database reads
// and parameters, and residual is a partially evaluated transaction that
// behaves exactly like T on every database satisfying the guard.
//
// Tables are constructed by the backward analysis of Figure 6, pruned with
// a linear-arithmetic feasibility check, and combined into joint tables
// for transaction sets via guarded cross product. Joint tables drive
// treaty generation (Section 4).
package symtab

import (
	"fmt"
	"maps"

	"repro/internal/lang"
	"repro/internal/lia"
)

// Row pairs a guard with the partially evaluated transaction that
// is equivalent to the analyzed transaction on databases satisfying the
// guard.
type Row struct {
	Guard    lang.BoolExpr
	Residual lang.Cmd
}

// Table is the symbolic table of a single transaction.
type Table struct {
	// Txn is the analyzed transaction (the lowered pure-L form).
	Txn *lang.Transaction
	// Source is the transaction as provided (possibly L++).
	Source *lang.Transaction
	Rows   []Row
}

// Build computes the symbolic table for a transaction. L++ transactions
// are lowered to pure L first (Appendix A). Rows whose guards are
// unsatisfiable linear systems are pruned.
func Build(t *lang.Transaction) (*Table, error) {
	lowered, err := lang.Lower(t)
	if err != nil {
		return nil, err
	}
	rows, err := analyze(lowered.Body, []Row{{Guard: lang.BoolLit{Value: true}, Residual: lang.Skip{}}})
	if err != nil {
		return nil, fmt.Errorf("symtab: analyzing %s: %w", t.Name, err)
	}
	rows = Prune(rows)
	return &Table{Txn: lowered, Source: t, Rows: rows}, nil
}

// analyze implements the Figure 6 rules, processing the command backwards
// against the running table Q.
func analyze(c lang.Cmd, q []Row) ([]Row, error) {
	switch c := c.(type) {
	case lang.Skip:
		// Rule (5).
		return q, nil

	case lang.Seq:
		// Rule (2): [[c1; c2, Q]] = [[c1, [[c2, Q]]]].
		q2, err := analyze(c.Rest, q)
		if err != nil {
			return nil, err
		}
		return analyze(c.First, q2)

	case lang.If:
		// Rule (3). Pruning here (not only at the end) keeps the running
		// table from growing exponentially on programs with long
		// conditional chains, such as lowered L++ array accesses.
		cond := lang.FoldBool(c.Cond)
		thenRows, err := analyze(c.Then, cloneRows(q))
		if err != nil {
			return nil, err
		}
		elseRows, err := analyze(c.Else, cloneRows(q))
		if err != nil {
			return nil, err
		}
		out := make([]Row, 0, len(thenRows)+len(elseRows))
		for _, r := range thenRows {
			out = append(out, Row{Guard: lang.Conj(cond, r.Guard), Residual: r.Residual})
		}
		negCond := lang.Negate(cond)
		for _, r := range elseRows {
			out = append(out, Row{Guard: lang.Conj(negCond, r.Guard), Residual: r.Residual})
		}
		return Prune(out), nil

	case lang.Assign:
		// Rule (4): guard gets phi{e/x^}, residual gets the assignment
		// prepended.
		return prepend(q, c, lang.TempVar{Name: c.Var}, c.E), nil

	case lang.WriteCmd:
		// Rule (6): guard gets phi{e/x}, residual gets the write prepended.
		return prepend(q, c, lang.Read{Obj: c.Obj}, c.E), nil

	case lang.PrintCmd:
		// Rule (7): guard unchanged, print prepended.
		out := make([]Row, len(q))
		for i, r := range q {
			out[i] = Row{Guard: r.Guard, Residual: lang.SeqOf(c, r.Residual)}
		}
		return out, nil

	case lang.ArrayWrite:
		return nil, fmt.Errorf("symtab: ArrayWrite in analysis; lower first")
	}
	return nil, fmt.Errorf("symtab: unknown command %T", c)
}

// prepend is rules (4) and (6): every guard of q gets x replaced by e, and
// c goes in front of every residual.
func prepend(q []Row, c lang.Cmd, x, e lang.Expr) []Row {
	out := make([]Row, len(q))
	for i, r := range q {
		out[i] = Row{Guard: lang.SubstBool(r.Guard, x, e), Residual: lang.SeqOf(c, r.Residual)}
	}
	return out
}

func cloneRows(q []Row) []Row {
	out := make([]Row, len(q))
	copy(out, q)
	return out
}

// Prune folds the ground parts of guards (lang.FoldBool: arithmetic that
// leaves int64 stays unfolded) and drops rows whose guards are provably
// unsatisfiable. Guards that are purely conjunctive linear systems are
// checked with Fourier-Motzkin; anything the linear fragment cannot
// express is conservatively kept.
func Prune(rows []Row) []Row {
	out := rows[:0]
	for _, r := range rows {
		folded := lang.FoldBool(r.Guard)
		if GuardUnsat(folded) {
			continue
		}
		out = append(out, Row{Guard: folded, Residual: r.Residual})
	}
	return out
}

// GuardUnsat reports whether the guard is provably unsatisfiable in the
// linear fragment. Conservative: false when undecidable here. Conjuncts
// outside the linear fragment (e.g. disequalities) are skipped rather
// than blocking the check of the remaining conjuncts.
func GuardUnsat(g lang.BoolExpr) bool {
	if lit, ok := g.(lang.BoolLit); ok {
		return !lit.Value
	}
	var cs []lia.Constraint
	lang.Conjuncts(g, func(conj lang.BoolExpr) {
		if part, err := lia.FormulaToConstraints(conj); err == nil {
			cs = append(cs, part...)
		} // else keep checking the linear conjuncts
	})
	return !lia.Feasible(cs)
}

// MatchRow returns the index of the unique row whose guard is satisfied by
// the database and parameter binding. Guard evaluation is L's, so a guard
// whose arithmetic leaves int64 fails with a *lang.OverflowError, as the
// source transaction does there. Returns an error if no row matches.
func (t *Table) MatchRow(db lang.Database, params map[string]int64) (int, error) {
	env := lang.Env{DB: db, Params: params}
	for i, r := range t.Rows {
		ok, err := lang.EvalBool(r.Guard, &env)
		if err != nil {
			return -1, fmt.Errorf("symtab: evaluating guard of row %d: %w", i, err)
		}
		if ok {
			return i, nil
		}
	}
	return -1, fmt.Errorf("symtab: no row of %s matches the database", t.Txn.Name)
}

// EvalResidual runs the residual of the given row as a transaction with
// the same parameters as the source transaction.
func (t *Table) EvalResidual(row int, db lang.Database, args ...int64) (lang.Result, error) {
	r := &lang.Transaction{
		Name:   fmt.Sprintf("%s#row%d", t.Txn.Name, row),
		Params: t.Txn.Params,
		Body:   t.Rows[row].Residual,
	}
	return lang.Eval(r, db, args...)
}

// String renders the table like Figure 4 of the paper.
func (t *Table) String() string {
	out := fmt.Sprintf("symbolic table for %s:\n", t.Txn.Name)
	for _, r := range t.Rows {
		out += fmt.Sprintf("  %s  |  %s\n", r.Guard, r.Residual)
	}
	return out
}

// JointRow is a row of a joint symbolic table for a transaction set: one
// shared guard and one residual per transaction (Section 2.2).
type JointRow struct {
	Guard     lang.BoolExpr
	Residuals []lang.Cmd
}

// JointTable is a symbolic table for a set of K transactions: a K+1-ary
// relation of guards and residuals.
type JointTable struct {
	Txns []*lang.Transaction
	Rows []JointRow
}

// Join builds the joint table of several per-transaction tables via cross
// product, conjoining guards and pruning unsatisfiable combinations.
func Join(tables ...*Table) *JointTable {
	jt := &JointTable{}
	for _, t := range tables {
		jt.Txns = append(jt.Txns, t.Txn)
	}
	rows := []JointRow{{Guard: lang.BoolLit{Value: true}}}
	for _, t := range tables {
		var next []JointRow
		for _, jr := range rows {
			for _, r := range t.Rows {
				guard := lang.Conj(jr.Guard, r.Guard)
				if GuardUnsat(guard) {
					continue
				}
				residuals := make([]lang.Cmd, len(jr.Residuals), len(jr.Residuals)+1)
				copy(residuals, jr.Residuals)
				next = append(next, JointRow{
					Guard:     guard,
					Residuals: append(residuals, r.Residual),
				})
			}
		}
		rows = next
	}
	jt.Rows = rows
	return jt
}

// MatchRow returns the index of the first row whose guard holds on the
// database under the parameter binding.
func (jt *JointTable) MatchRow(db lang.Database, params map[string]int64) (int, error) {
	env := lang.Env{DB: db, Params: params}
	for i, r := range jt.Rows {
		ok, err := lang.EvalBool(r.Guard, &env)
		if err != nil {
			return -1, fmt.Errorf("symtab: joint guard %d: %w", i, err)
		}
		if ok {
			return i, nil
		}
	}
	return -1, fmt.Errorf("symtab: no joint row matches the database")
}

// Size returns the number of rows.
func (jt *JointTable) Size() int { return len(jt.Rows) }

// Group is a set of transactions whose footprints overlap; independent
// groups can be analyzed and governed by treaties separately, which is the
// factorized encoding the paper's analyzer uses for compression
// (Section 5.1, "points of independence").
type Group struct {
	// Indices of the member transactions in the input order.
	Members []int
	Tables  []*Table
}

// FactorGroups partitions the tables into independence groups: two
// transactions belong to the same group when their read/write footprints
// share a database object. The joint table of each group is exponentially
// smaller than the monolithic join.
func FactorGroups(tables []*Table) []Group {
	n := len(tables)
	foot := make([]map[lang.ObjID]bool, n)
	for i, t := range tables {
		reads, writes := lang.Footprint(t.Txn.Body, t.Txn.Arrays)
		maps.Copy(reads, writes)
		foot[i] = reads
	}
	// Union-find over transactions.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for obj := range foot[i] {
				if foot[j][obj] {
					union(i, j)
					break
				}
			}
		}
	}
	groups := make(map[int]*Group)
	var order []int
	for i := 0; i < n; i++ {
		root := find(i)
		g, ok := groups[root]
		if !ok {
			g = &Group{}
			groups[root] = g
			order = append(order, root)
		}
		g.Members = append(g.Members, i)
		g.Tables = append(g.Tables, tables[i])
	}
	out := make([]Group, 0, len(order))
	for _, root := range order {
		out = append(out, *groups[root])
	}
	return out
}
