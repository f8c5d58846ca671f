package symtab

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lang"
)

// This file fuzzes the Figure 6 analysis with randomly generated L
// programs: for every generated transaction and every random database,
// exactly one guard must hold and the matched residual must be
// observationally equivalent to the source transaction.

type progGen struct {
	rng   *rand.Rand
	temps []string
	objs  []lang.ObjID
	depth int
	// value draws a literal; nil draws from [-10, 10]. A generator that
	// has one also multiplies.
	value func() int64
}

func (g *progGen) expr() lang.Expr {
	switch g.rng.Intn(6) {
	case 0:
		if g.value != nil {
			return lang.IntLit{Value: g.value()}
		}
		return lang.IntLit{Value: int64(g.rng.Intn(21) - 10)}
	case 1:
		return lang.Read{Obj: g.objs[g.rng.Intn(len(g.objs))]}
	case 2:
		if len(g.temps) > 0 {
			return lang.TempVar{Name: g.temps[g.rng.Intn(len(g.temps))]}
		}
		return lang.IntLit{Value: 1}
	case 3:
		return lang.Bin{Op: lang.OpAdd, L: g.expr(), R: g.expr()}
	case 4:
		return lang.Bin{Op: lang.OpSub, L: g.expr(), R: g.expr()}
	}
	if g.value != nil && g.rng.Intn(2) == 0 {
		return lang.Bin{Op: lang.OpMul, L: g.expr(), R: g.expr()}
	}
	return lang.Neg{E: g.expr()}
}

func (g *progGen) boolExpr() lang.BoolExpr {
	ops := []lang.CmpOp{lang.CmpLT, lang.CmpLE, lang.CmpEQ, lang.CmpGT, lang.CmpGE}
	b := lang.BoolExpr(lang.Cmp{Op: ops[g.rng.Intn(len(ops))], L: g.expr(), R: g.expr()})
	if g.rng.Intn(4) == 0 {
		b = lang.Not{B: b}
	}
	if g.rng.Intn(4) == 0 {
		b = lang.And{L: b, R: lang.Cmp{Op: lang.CmpLE, L: g.expr(), R: g.expr()}}
	}
	return b
}

func (g *progGen) cmd(budget int) lang.Cmd {
	if budget <= 0 {
		return lang.Skip{}
	}
	switch g.rng.Intn(6) {
	case 0:
		name := []string{"t0", "t1", "t2"}[g.rng.Intn(3)]
		c := lang.Assign{Var: name, E: g.expr()}
		g.temps = appendUnique(g.temps, name)
		return c
	case 1:
		return lang.WriteCmd{Obj: g.objs[g.rng.Intn(len(g.objs))], E: g.expr()}
	case 2:
		return lang.PrintCmd{E: g.expr()}
	case 3:
		if g.depth >= 3 {
			return lang.Skip{}
		}
		g.depth++
		// Branch temp bindings may differ: snapshot and merge
		// conservatively (only temps defined before the branch are safe
		// to use after it; using the pre-branch set keeps programs
		// well-defined).
		pre := append([]string(nil), g.temps...)
		thenC := g.cmd(budget - 1)
		g.temps = append([]string(nil), pre...)
		elseC := g.cmd(budget - 1)
		g.temps = pre
		g.depth--
		return lang.If{Cond: g.boolExpr(), Then: thenC, Else: elseC}
	default:
		return lang.Seq{First: g.cmd(budget / 2), Rest: g.cmd(budget - budget/2 - 1)}
	}
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// TestFuzzResidualEquivalence generates random L programs and checks the
// defining symbolic-table property against direct evaluation.
func TestFuzzResidualEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	objs := []lang.ObjID{"x", "y", "z"}
	for trial := 0; trial < 250; trial++ {
		g := &progGen{rng: rng, objs: objs}
		txn := &lang.Transaction{Name: "F", Body: g.cmd(8)}
		tbl, err := Build(txn)
		if err != nil {
			t.Fatalf("trial %d: Build: %v\nprogram: %s", trial, err, txn.Body)
		}
		for probe := 0; probe < 20; probe++ {
			db := lang.Database{}
			for _, o := range objs {
				db[o] = int64(rng.Intn(31) - 15)
			}
			want, err := lang.Eval(txn, db)
			if err != nil {
				// Programs can reference undefined temps along some paths;
				// skip those databases (the analysis still terminates).
				continue
			}
			// Exactly one guard must hold.
			matches := 0
			matched := -1
			for i, row := range tbl.Rows {
				ok, err := lang.EvalBool(row.Guard, &lang.Env{DB: db})
				if err != nil {
					continue
				}
				if ok {
					matches++
					matched = i
				}
			}
			if matches != 1 {
				t.Fatalf("trial %d: %d guards hold on %v\nprogram: %s\n%s",
					trial, matches, db, txn.Body, tbl)
			}
			got, err := tbl.EvalResidual(matched, db)
			if err != nil {
				t.Fatalf("trial %d: residual eval: %v", trial, err)
			}
			if !want.DB.Equal(got.DB) || !slices.Equal(want.Log, got.Log) {
				t.Fatalf("trial %d: residual mismatch on %v\nprogram: %s\nrow %d: %s\ngot DB %v log %v\nwant DB %v log %v",
					trial, db, txn.Body, matched, tbl.Rows[matched].Guard,
					got.DB, got.Log, want.DB, want.Log)
			}
		}
	}
}

// edgeValues are the literals and database values of
// TestFuzzEdgeValues: both ends of int64, their neighbours, and a few
// small numbers for the arithmetic to meet them with.
var edgeValues = []int64{
	math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
	1 << 62, -(1 << 62), -2, -1, 0, 1, 2,
}

// TestFuzzEdgeValues runs the generated programs with literals and
// databases near ±2^63, where L's checked arithmetic aborts a transaction.
// The table must abort with it: MatchRow fails with an overflow only where
// Eval of the source does, and otherwise the matched residual overflows
// exactly where the source does and elsewhere writes and prints what the
// source does. Databases on which the source fails for another reason (a
// temporary unbound on its path) are skipped, as in
// TestFuzzResidualEquivalence.
func TestFuzzEdgeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	objs := []lang.ObjID{"x", "y", "z"}
	edge := func() int64 { return edgeValues[rng.Intn(len(edgeValues))] }
	var overflow *lang.OverflowError
	overflows, matched := 0, 0
	for trial := 0; trial < 250; trial++ {
		g := &progGen{rng: rng, objs: objs, value: edge}
		txn := &lang.Transaction{Name: "F", Body: g.cmd(8)}
		tbl, err := Build(txn)
		if err != nil {
			t.Fatalf("trial %d: Build: %v\nprogram: %s", trial, err, txn.Body)
		}
		for probe := 0; probe < 20; probe++ {
			db := lang.Database{}
			for _, o := range objs {
				db[o] = edge()
			}
			want, werr := lang.Eval(txn, db)
			if werr != nil && !errors.As(werr, &overflow) {
				continue
			}
			row, merr := tbl.MatchRow(db, nil)
			if merr != nil {
				if werr == nil || !errors.As(merr, &overflow) {
					t.Fatalf("trial %d on %v: MatchRow: %v, source: %v\nprogram: %s\n%s",
						trial, db, merr, werr, txn.Body, tbl)
				}
				overflows++
				continue
			}
			matched++
			got, gerr := tbl.EvalResidual(row, db)
			if (werr == nil) != (gerr == nil) || (gerr != nil && !errors.As(gerr, &overflow)) {
				t.Fatalf("trial %d on %v: row %d (%s) residual: %v, source: %v\nprogram: %s",
					trial, db, row, tbl.Rows[row].Guard, gerr, werr, txn.Body)
			}
			if werr == nil && (!want.DB.Equal(got.DB) || !slices.Equal(want.Log, got.Log)) {
				t.Fatalf("trial %d: residual mismatch on %v\nprogram: %s\nrow %d: %s\ngot DB %v log %v\nwant DB %v log %v",
					trial, db, txn.Body, row, tbl.Rows[row].Guard,
					got.DB, got.Log, want.DB, want.Log)
			}
		}
	}
	if overflows == 0 || matched == 0 {
		t.Fatalf("%d guard overflows and %d matched rows: the probes miss a side", overflows, matched)
	}
}
