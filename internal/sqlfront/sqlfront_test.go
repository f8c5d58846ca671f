package sqlfront

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/symtab"
)

const stockSchema = `
CREATE TABLE stock (key, qty) SIZE 4
`

func compile(t *testing.T, script string) (*lang.Transaction, Schema) {
	t.Helper()
	txn, schema, err := Compile("T", script)
	if err != nil {
		t.Fatal(err)
	}
	return txn, schema
}

func loadStock(t *testing.T, schema Schema, rows [][2]int64) lang.Database {
	t.Helper()
	db := lang.Database{}
	for i, r := range rows {
		if err := LoadRow(db, schema["stock"], int64(i), r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSelectSum(t *testing.T) {
	txn, schema := compile(t, stockSchema+`SELECT SUM(qty) FROM stock WHERE key = @k`)
	db := loadStock(t, schema, [][2]int64{{1, 10}, {2, 20}, {1, 30}, {0, 0}})
	cases := map[int64]int64{1: 40, 2: 20, 5: 0}
	for k, want := range cases {
		res, err := lang.Eval(txn, db, k)
		if err != nil {
			t.Fatal(err)
		}
		if !lang.LogsEqual(res.Log, []int64{want}) {
			t.Errorf("SUM WHERE key=%d: got %v, want [%d]", k, res.Log, want)
		}
	}
}

func TestSelectCount(t *testing.T) {
	txn, schema := compile(t, stockSchema+`SELECT COUNT(*) FROM stock WHERE qty > @min`)
	db := loadStock(t, schema, [][2]int64{{1, 10}, {2, 20}, {3, 30}, {0, 99}})
	// The free slot (key 0) must not count even though its qty matches.
	res, err := lang.Eval(txn, db, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !lang.LogsEqual(res.Log, []int64{2}) {
		t.Fatalf("COUNT qty>15 = %v, want [2] (free slots excluded)", res.Log)
	}
}

func TestUpdateWhere(t *testing.T) {
	txn, schema := compile(t, stockSchema+`UPDATE stock SET qty = qty - @d WHERE key = @k`)
	db := loadStock(t, schema, [][2]int64{{1, 10}, {2, 20}, {1, 30}, {0, 0}})
	res, err := lang.Eval(txn, db, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := schema["stock"]
	get := func(row, col int64) int64 {
		return res.DB.Get(lang.ArrayObj(tab.Name, row*2+col))
	}
	if get(0, 1) != 7 || get(2, 1) != 27 {
		t.Fatalf("UPDATE missed rows: %d, %d", get(0, 1), get(2, 1))
	}
	if get(1, 1) != 20 {
		t.Fatalf("UPDATE touched wrong row: %d", get(1, 1))
	}
}

func TestInsertAndDelete(t *testing.T) {
	txn, schema := compile(t, stockSchema+`INSERT INTO stock VALUES (@k, @v)`)
	db := loadStock(t, schema, [][2]int64{{1, 10}, {0, 0}, {2, 20}, {0, 0}})
	res, err := lang.Eval(txn, db, 7, 70)
	if err != nil {
		t.Fatal(err)
	}
	if !lang.LogsEqual(res.Log, []int64{1}) {
		t.Fatalf("insert log = %v", res.Log)
	}
	tab := schema["stock"]
	if res.DB.Get(lang.ArrayObj(tab.Name, 2)) != 7 || res.DB.Get(lang.ArrayObj(tab.Name, 3)) != 70 {
		t.Fatal("insert did not use the first free slot")
	}
	// Fill the table, then a further insert reports failure.
	full := loadStock(t, schema, [][2]int64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	res, err = lang.Eval(txn, full, 7, 70)
	if err != nil {
		t.Fatal(err)
	}
	if !lang.LogsEqual(res.Log, []int64{0}) {
		t.Fatalf("full-table insert log = %v", res.Log)
	}

	// DELETE frees the slot again.
	del, schema2 := compile(t, stockSchema+`DELETE FROM stock WHERE key = @k`)
	db2 := loadStock(t, schema2, [][2]int64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	res, err = lang.Eval(del, db2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Get(lang.ArrayObj("stock", 2)) != 0 {
		t.Fatal("delete did not clear the key")
	}
}

func TestMultiStatementTransaction(t *testing.T) {
	// A read-modify-write transaction: decrement then report the total.
	txn, schema := compile(t, stockSchema+`
UPDATE stock SET qty = qty - 1 WHERE key = @k
SELECT SUM(qty) FROM stock WHERE key = @k`)
	db := loadStock(t, schema, [][2]int64{{5, 10}, {6, 20}, {0, 0}, {0, 0}})
	res, err := lang.Eval(txn, db, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !lang.LogsEqual(res.Log, []int64{9}) {
		t.Fatalf("log = %v, want [9]", res.Log)
	}
}

func TestParamsCollectedInOrder(t *testing.T) {
	txn, _ := compile(t, stockSchema+`
UPDATE stock SET qty = qty + @a WHERE key = @b
SELECT SUM(qty) FROM stock WHERE key = @a`)
	want := []string{"a", "b"}
	if len(txn.Params) != 2 || txn.Params[0] != want[0] || txn.Params[1] != want[1] {
		t.Fatalf("params = %v, want %v", txn.Params, want)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`SELECT SUM(qty) FROM nowhere`,
		stockSchema + `SELECT MAX(qty) FROM stock`,
		stockSchema + `UPDATE stock SET nosuch = 1`,
		stockSchema + `INSERT INTO stock VALUES (1)`,
		stockSchema + `BEGIN TRANSACTION`,
		`CREATE TABLE t (a) SIZE 0`,
		stockSchema + stockSchema + `SELECT COUNT(*) FROM stock`, // duplicate table
	}
	for _, script := range bad {
		if _, _, err := Compile("T", script); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", script)
		}
	}
}

// TestCompiledTransactionsAnalyzable: the compiled L++ feeds the full
// analysis pipeline — symbolic tables build, guards partition, and
// residuals stay equivalent. This closes the Appendix A loop: SQL ->
// L++ -> L -> symbolic table.
func TestCompiledTransactionsAnalyzable(t *testing.T) {
	txn, schema := compile(t, `
CREATE TABLE s (key, qty) SIZE 2
UPDATE s SET qty = qty - @d WHERE key = @k`)
	tbl, err := symtab.Build(txn)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("empty symbolic table")
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 150; trial++ {
		db := lang.Database{}
		if err := LoadRow(db, schema["s"], 0, int64(1+rng.Intn(3)), int64(rng.Intn(20))); err != nil {
			t.Fatal(err)
		}
		if err := LoadRow(db, schema["s"], 1, int64(1+rng.Intn(3)), int64(rng.Intn(20))); err != nil {
			t.Fatal(err)
		}
		k, d := int64(1+rng.Intn(3)), int64(rng.Intn(5))
		params := map[string]int64{"d": d, "k": k}
		row, err := tbl.MatchRow(db, params)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := lang.Eval(txn, db, d, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tbl.EvalResidual(row, db, d, k)
		if err != nil {
			t.Fatal(err)
		}
		if !want.DB.Equal(got.DB) {
			t.Fatalf("trial %d: residual mismatch", trial)
		}
	}
}

func TestLowerCompiledSQL(t *testing.T) {
	txn, schema := compile(t, stockSchema+`SELECT SUM(qty) FROM stock WHERE key = @k`)
	lowered, err := lang.Lower(txn)
	if err != nil {
		t.Fatal(err)
	}
	db := loadStock(t, schema, [][2]int64{{1, 5}, {1, 6}, {2, 7}, {0, 0}})
	a, _ := lang.Eval(txn, db, 1)
	b, err := lang.Eval(lowered, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !lang.LogsEqual(a.Log, b.Log) {
		t.Fatalf("lowered SQL diverges: %v vs %v", a.Log, b.Log)
	}
}

// names collects, from every node under v, the names of the temporaries
// (assigned or read) and of the parameters.
func names(v reflect.Value, temps, params map[string]bool) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			names(v.Elem(), temps, params)
		}
	case reflect.Struct:
		switch n := v.Interface().(type) {
		case lang.Assign:
			temps[n.Var] = true
		case lang.TempVar:
			temps[n.Name] = true
		case lang.Param:
			params[n.Name] = true
		}
		for i := 0; i < v.NumField(); i++ {
			names(v.Field(i), temps, params)
		}
	}
}

// TestGeneratedTemporariesAreNoParameters: the compiler emits Param nodes
// for the @names itself, so nothing resolves names afterwards — which is
// only right if no temporary it generates (an accumulator, an insert's
// done flag) or the lowering generates can be an @name. They all begin
// with an underscore, and an @name may not.
func TestGeneratedTemporariesAreNoParameters(t *testing.T) {
	txn, _ := compile(t, stockSchema+`
SELECT SUM(qty) FROM stock WHERE key = @acc
SELECT COUNT(*) FROM stock WHERE qty > @done
INSERT INTO stock VALUES (@acc1, @lw1)
UPDATE stock SET qty = qty - @d WHERE key = @acc`)
	lowered, err := lang.Lower(txn)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []*lang.Transaction{txn, lowered} {
		temps, params := map[string]bool{}, map[string]bool{}
		names(reflect.ValueOf(&tx.Body).Elem(), temps, params)
		if len(temps) < 3 || len(params) != 5 {
			t.Fatalf("found temporaries %v and parameters %v", temps, params)
		}
		for name := range temps {
			if !strings.HasPrefix(name, "_") || params[name] {
				t.Errorf("generated temporary %q could be the parameter @%s", name, name)
			}
		}
		for _, p := range tx.Params {
			if !params[p] || temps[p] {
				t.Errorf("parameter %q: a Param node %v, a temporary %v", p, params[p], temps[p])
			}
		}
	}
	for _, script := range []string{
		`SELECT SUM(qty) FROM stock WHERE key = @_acc1`,
		`INSERT INTO stock VALUES (@k, @_done1)`,
		`UPDATE stock SET qty = qty + @_lw1 WHERE key = 1`,
	} {
		if _, _, err := Compile("T", stockSchema+script); err == nil || !strings.Contains(err.Error(), "reserved for generated temporaries") {
			t.Errorf("%s: error %v, want the reserved-name refusal", script, err)
		}
	}
}
