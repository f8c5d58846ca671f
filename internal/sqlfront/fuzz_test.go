package sqlfront

import (
	"testing"

	"repro/internal/lang"
)

// sqlSeeds are the scripts this package's tests compile and the SQL
// classes of homeo/httpapi's /v1/classes golden file
// (testdata/classes_seed1.golden).
var sqlSeeds = []string{
	stockSchema + `SELECT SUM(qty) FROM stock WHERE key = @k`,
	stockSchema + `SELECT COUNT(*) FROM stock WHERE qty > @min`,
	stockSchema + `UPDATE stock SET qty = qty - @d WHERE key = @k`,
	stockSchema + `INSERT INTO stock VALUES (@k, @v)`,
	stockSchema + `DELETE FROM stock WHERE key = @k`,
	stockSchema + "UPDATE stock SET qty = qty - 1 WHERE key = @k\nSELECT SUM(qty) FROM stock WHERE key = @k",
	stockSchema + "UPDATE stock SET qty = qty + @a WHERE key = @b\nSELECT SUM(qty) FROM stock WHERE key = @a",
	"CREATE TABLE s (key, qty) SIZE 2\nUPDATE s SET qty = qty - @d WHERE key = @k",
	stockSchema + "SELECT SUM(qty) FROM stock WHERE key = @acc\nSELECT COUNT(*) FROM stock WHERE qty > @done\n" +
		"INSERT INTO stock VALUES (@acc1, @lw1)\nUPDATE stock SET qty = qty - @d WHERE key = @acc",
	stockSchema + `UPDATE stock SET qty = qty + @_lw1 WHERE key = 1`,
	`SELECT SUM(qty) FROM nowhere`,
	stockSchema + `SELECT MAX(qty) FROM stock`,
	stockSchema + stockSchema + `SELECT COUNT(*) FROM stock`,
	"CREATE TABLE inv (sku, qty) SIZE 2\nUPDATE inv SET qty = qty + @d WHERE sku = @k",
	"CREATE TABLE t (a) SIZE 1",
	"CREATE TABLE inv (item, qty) SIZE 8\nUPDATE inv SET qty = qty + @d WHERE item = @k\nSELECT SUM(qty) FROM inv WHERE item = @k;",
}

// FuzzCompile: Compile refuses what it cannot compile instead of
// panicking, and a script it accepts gives a transaction that lang.Eval
// runs on the zero database — every table empty — without panicking,
// whatever the arguments.
func FuzzCompile(f *testing.F) {
	for _, script := range sqlSeeds {
		f.Add(script, int64(1), int64(-2))
	}
	f.Fuzz(func(t *testing.T, script string, a, b int64) {
		txn, schema, err := Compile("T", script)
		if err != nil {
			return
		}
		if txn == nil || schema == nil {
			t.Fatalf("%q compiled to %v, %v", script, txn, schema)
		}
		args := make([]int64, len(txn.Params))
		for i := range args {
			args[i] = a
			if i%2 == 1 {
				args[i] = b
			}
		}
		_, _ = lang.Eval(txn, lang.Database{}, args...)
	})
}
