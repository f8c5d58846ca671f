package symtab

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/lang"
)

const t1Src = `
transaction T1() {
	xh := read(x);
	yh := read(y);
	if (xh + yh < 10) then
		write(x = xh + 1)
	else
		write(x = xh - 1)
}`

const t2Src = `
transaction T2() {
	xh := read(x);
	yh := read(y);
	if (xh + yh < 20) then
		write(y = yh + 1)
	else
		write(y = yh - 1)
}`

// TestTopKTableShape: the paper's Section 1 top-2 insert has three rows (a
// new maximum, a new second, and the silent insert), and the row that
// writes nothing is Figure 2's cached-minimum check, v <= top2.
func TestTopKTableShape(t *testing.T) {
	src, err := os.ReadFile("../lang/testdata/topk.l")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Build(lang.MustParse(string(src)))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tbl.Rows); n != 3 {
		t.Fatalf("rows = %d, want 3\n%s", n, tbl)
	}
	silent := slices.IndexFunc(tbl.Rows, func(r Row) bool {
		_, writes := lang.Footprint(r.Residual, nil)
		return len(writes) == 0
	})
	if silent < 0 {
		t.Fatalf("no row writes nothing\n%s", tbl)
	}
	for _, tc := range []struct {
		v    int64
		want bool
	}{{50, true}, {91, true}, {92, false}, {150, false}} {
		ok, err := lang.EvalBool(tbl.Rows[silent].Guard, &lang.Env{
			DB: lang.Database{"top1": 100, "top2": 91}, Params: map[string]int64{"v": tc.v}})
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.want {
			t.Errorf("silent guard %s at v=%d: %v, want %v", tbl.Rows[silent].Guard, tc.v, ok, tc.want)
		}
	}
}

// TestT1TableMatchesFigure4a: the table for T1 must have exactly two rows
// whose guards partition on x + y < 10 (Figure 4a).
func TestT1TableMatchesFigure4a(t *testing.T) {
	tbl, err := Build(lang.MustParse(t1Src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2\n%s", len(tbl.Rows), tbl)
	}
	// Guards must partition: exactly one row matches any database. The
	// evaluation binds no temporary, so a guard that retains one fails.
	for x := int64(-5); x <= 15; x++ {
		for y := int64(-5); y <= 15; y++ {
			db := lang.Database{"x": x, "y": y}
			n := 0
			for _, r := range tbl.Rows {
				ok, err := lang.EvalBool(r.Guard, &lang.Env{DB: db})
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("(%d,%d): %d guards hold, want exactly 1", x, y, n)
			}
		}
	}
}

// TestResidualEquivalence is the defining property of symbolic tables:
// Eval(T, D) == Eval(residual of matching row, D).
func TestResidualEquivalence(t *testing.T) {
	for _, src := range []string{t1Src, t2Src} {
		txn := lang.MustParse(src)
		tbl, err := Build(txn)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 300; trial++ {
			db := lang.Database{
				"x": int64(rng.Intn(41) - 10),
				"y": int64(rng.Intn(41) - 10),
			}
			row, err := tbl.MatchRow(db, nil)
			if err != nil {
				t.Fatalf("%s: %v", txn.Name, err)
			}
			want, err := lang.Eval(txn, db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tbl.EvalResidual(row, db)
			if err != nil {
				t.Fatal(err)
			}
			if !want.DB.Equal(got.DB) {
				t.Fatalf("%s on %v: residual DB %v != %v", txn.Name, db, got.DB, want.DB)
			}
			if !slices.Equal(want.Log, got.Log) {
				t.Fatalf("%s on %v: logs differ", txn.Name, db)
			}
		}
	}
}

// TestJointTableMatchesFigure4c: the joint table for {T1, T2} has three
// satisfiable rows (x+y<10, 10<=x+y<20, x+y>=20) after pruning.
func TestJointTableMatchesFigure4c(t *testing.T) {
	tbl1, err := Build(lang.MustParse(t1Src))
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := Build(lang.MustParse(t2Src))
	if err != nil {
		t.Fatal(err)
	}
	jt := Join(tbl1, tbl2)
	if jt.Size() != 3 {
		t.Fatalf("joint rows = %d, want 3 (pruned cross product)", jt.Size())
	}
	// The paper's example: x=10, y=13 selects the third region x+y>=20.
	row, err := jt.MatchRow(lang.Database{"x": 10, "y": 13}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the matched row's guard excludes both increments.
	db := lang.Database{"x": 10, "y": 13}
	res1, err := lang.Eval(&lang.Transaction{Name: "r", Body: jt.Rows[row].Residuals[0]}, db)
	if err != nil {
		t.Fatal(err)
	}
	if res1.DB.Get("x") != 9 {
		t.Fatalf("T1 residual on region 3 should decrement x: got %d", res1.DB.Get("x"))
	}
	res2, err := lang.Eval(&lang.Transaction{Name: "r", Body: jt.Rows[row].Residuals[1]}, db)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DB.Get("y") != 12 {
		t.Fatalf("T2 residual on region 3 should decrement y (10+13 >= 20): got %d", res2.DB.Get("y"))
	}
}

// TestJointResidualEquivalence: each residual of the matching joint row
// behaves like its transaction.
func TestJointResidualEquivalence(t *testing.T) {
	t1 := lang.MustParse(t1Src)
	t2 := lang.MustParse(t2Src)
	tbl1, _ := Build(t1)
	tbl2, _ := Build(t2)
	jt := Join(tbl1, tbl2)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		db := lang.Database{
			"x": int64(rng.Intn(61) - 20),
			"y": int64(rng.Intn(61) - 20),
		}
		row, err := jt.MatchRow(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, txn := range []*lang.Transaction{t1, t2} {
			want, _ := lang.Eval(txn, db)
			got, err := lang.Eval(&lang.Transaction{Name: "r", Body: jt.Rows[row].Residuals[i]}, db)
			if err != nil {
				t.Fatal(err)
			}
			if !want.DB.Equal(got.DB) || !slices.Equal(want.Log, got.Log) {
				t.Fatalf("trial %d txn %d: joint residual mismatch on %v", trial, i, db)
			}
		}
	}
}

// TestParameterizedTable: parameters are pushed into guards (Section 5.1).
func TestParameterizedTable(t *testing.T) {
	txn := lang.MustParse(`
transaction Order(qty) {
	s := read(stock);
	if (s - qty >= 0) then
		write(stock = s - qty)
	else
		print(0)
}`)
	tbl, err := Build(txn)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		db := lang.Database{"stock": int64(rng.Intn(20))}
		qty := int64(rng.Intn(10))
		params := map[string]int64{"qty": qty}
		row, err := tbl.MatchRow(db, params)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := lang.Eval(txn, db, qty)
		got, err := tbl.EvalResidual(row, db, qty)
		if err != nil {
			t.Fatal(err)
		}
		if !want.DB.Equal(got.DB) || !slices.Equal(want.Log, got.Log) {
			t.Fatalf("trial %d: parameterized residual mismatch", trial)
		}
	}
}

// TestNestedConditionals: 2 levels of nesting yield up to 4 paths.
func TestNestedConditionals(t *testing.T) {
	txn := lang.MustParse(`
transaction T() {
	a := read(x);
	b := read(y);
	if (a < 0) then {
		if (b < 0) then print(1) else print(2)
	} else {
		if (b < 0) then print(3) else print(4)
	}
}`)
	tbl, err := Build(txn)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	for _, db := range []lang.Database{
		{"x": -1, "y": -1}, {"x": -1, "y": 1}, {"x": 1, "y": -1}, {"x": 1, "y": 1},
	} {
		row, err := tbl.MatchRow(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := lang.Eval(txn, db)
		got, _ := tbl.EvalResidual(row, db)
		if !slices.Equal(want.Log, got.Log) {
			t.Fatalf("db %v: logs %v != %v", db, got.Log, want.Log)
		}
	}
}

// TestPruneUnreachablePath: contradictory nested conditions are removed.
func TestPruneUnreachablePath(t *testing.T) {
	txn := lang.MustParse(`
transaction T() {
	a := read(x);
	if (a < 0) then {
		if (a > 5) then print(1) else print(2)
	} else
		print(3)
}`)
	tbl, err := Build(txn)
	if err != nil {
		t.Fatal(err)
	}
	// Path a<0 && a>5 is infeasible; 2 feasible paths remain.
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 after pruning\n%s", len(tbl.Rows), tbl)
	}
}

// TestWriteReadInteraction: a write followed by a read of the same object
// must see the written value in guard substitution (rule 6 ordering).
func TestWriteReadInteraction(t *testing.T) {
	txn := lang.MustParse(`
transaction T() {
	write(x = 5);
	v := read(x);
	if (v < 10) then print(1) else print(2)
}`)
	tbl, err := Build(txn)
	if err != nil {
		t.Fatal(err)
	}
	// After substitution the guard of the first path becomes 5 < 10 which
	// is always true; the else path is infeasible and pruned.
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d, want 1\n%s", len(tbl.Rows), tbl)
	}
	res, err := tbl.EvalResidual(0, lang.Database{"x": 100})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Log, []int64{1}) {
		t.Fatalf("log = %v, want [1]", res.Log)
	}
}

// TestLppTableViaLowering: symbolic tables work on L++ by lowering.
func TestLppTableViaLowering(t *testing.T) {
	txn := lang.MustParse(`
transaction T(i) {
	array a(3);
	v := a(i);
	if (v > 0) then write(a(i) = v - 1) else skip
}`)
	tbl, err := Build(txn)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table")
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		db := lang.Database{}
		for i := int64(0); i < 3; i++ {
			db[lang.ArrayObj("a", i)] = int64(rng.Intn(5) - 1)
		}
		i := int64(rng.Intn(3))
		params := map[string]int64{"i": i}
		row, err := tbl.MatchRow(db, params)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := lang.Eval(txn, db, i)
		got, err := tbl.EvalResidual(row, db, i)
		if err != nil {
			t.Fatal(err)
		}
		if !want.DB.Equal(got.DB) {
			t.Fatalf("trial %d: lowered residual mismatch on %v i=%d:\n got %v\nwant %v",
				trial, db, i, got.DB, want.DB)
		}
	}
	// A hand-built body that accesses an array it does not declare is
	// refused; the parser refuses the source form.
	bare := &lang.Transaction{Name: "B", Params: txn.Params, Body: txn.Body}
	if _, err := Build(bare); err == nil || !strings.Contains(err.Error(), `undeclared array "a"`) {
		t.Errorf("Build of %s without its array declaration: error %v", bare, err)
	}
}

func TestFactorGroups(t *testing.T) {
	t1, _ := Build(lang.MustParse(t1Src)) // touches x, y
	t2, _ := Build(lang.MustParse(t2Src)) // touches x, y
	t3, _ := Build(lang.MustParse(`transaction T3() { // touches z only
		v := read(z); write(z = v + 1) }`))
	groups := FactorGroups([]*Table{t1, t2, t3})
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if len(groups[0].Members) != 2 || len(groups[1].Members) != 1 {
		t.Fatalf("group sizes = %d/%d, want 2/1",
			len(groups[0].Members), len(groups[1].Members))
	}
}

// TestFactorizedJoinSizeAdvantage: factorized joint tables stay small.
func TestFactorizedJoinSizeAdvantage(t *testing.T) {
	// 4 transactions on 4 disjoint objects, each with a 2-row table.
	var tables []*Table
	for _, obj := range []string{"a", "b", "c", "d"} {
		txn := lang.MustParse(`
transaction T_` + obj + `() {
	v := read(` + obj + `);
	if (v > 0) then write(` + obj + ` = v - 1) else write(` + obj + ` = 100)
}`)
		tbl, err := Build(txn)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	mono := Join(tables...)
	if mono.Size() != 16 {
		t.Fatalf("monolithic join = %d rows, want 16", mono.Size())
	}
	groups := FactorGroups(tables)
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += Join(g.Tables...).Size()
	}
	if total != 8 {
		t.Fatalf("factorized total = %d rows, want 8", total)
	}
}

func TestMatchRowNoMatch(t *testing.T) {
	// A table with a single false guard after manual surgery.
	tbl := &Table{
		Txn:  &lang.Transaction{Name: "X"},
		Rows: []Row{{Guard: lang.BoolLit{Value: false}, Residual: lang.Skip{}}},
	}
	if _, err := tbl.MatchRow(lang.Database{}, nil); err == nil {
		t.Fatal("expected no-match error")
	}
}

// TestMatchRowOverflows: at x = 2^63 - 1 and n = 1 the source aborts on
// v + n, and so does the guard that decides its branch, rather than
// matching a row whose residual the source never runs.
func TestMatchRowOverflows(t *testing.T) {
	txn := lang.MustParse(`transaction T(n) { v := read(x); if (v + n > 0) then write(x = v - 1) else skip }`)
	tbl, err := Build(txn)
	if err != nil {
		t.Fatal(err)
	}
	db := lang.Database{"x": math.MaxInt64}
	var overflow *lang.OverflowError
	if _, err := lang.Eval(txn, db, 1); !errors.As(err, &overflow) {
		t.Fatalf("Eval: %v, want an overflow", err)
	}
	if row, err := tbl.MatchRow(db, map[string]int64{"n": 1}); !errors.As(err, &overflow) {
		t.Fatalf("MatchRow = %d, %v, want an overflow\n%s", row, err, tbl)
	}
	if row, err := tbl.MatchRow(db, map[string]int64{"n": -1}); err != nil || row != 0 {
		t.Fatalf("MatchRow at n = -1 = %d, %v, want row 0", row, err)
	}
}

// TestPruneKeepsOverflowingGround: a condition whose constant arithmetic
// leaves int64 is not folded to the wrapped value's outcome, which would
// drop one of its rows; both stay, and MatchRow aborts where the source
// does.
func TestPruneKeepsOverflowingGround(t *testing.T) {
	for _, cond := range []string{
		"9223372036854775807 + 1 > 0",     // wrapped, false: the then row would go
		"2 * 4611686018427387904 < 0",     // wrapped, true: the else row would go
		"-(-9223372036854775807 - 1) = 0", // -MinInt64 wraps to itself
	} {
		txn := lang.MustParse("transaction T() { if (" + cond + ") then write(x = 1) else write(x = 2) }")
		tbl, err := Build(txn)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != 2 {
			t.Fatalf("%s: rows = %d, want 2\n%s", cond, len(tbl.Rows), tbl)
		}
		var overflow *lang.OverflowError
		if row, err := tbl.MatchRow(lang.Database{}, nil); !errors.As(err, &overflow) {
			t.Fatalf("%s: MatchRow = %d, %v, want an overflow", cond, row, err)
		}
		if _, err := lang.Eval(txn, lang.Database{}); !errors.As(err, &overflow) {
			t.Fatalf("%s: Eval: %v, want an overflow", cond, err)
		}
	}
}
