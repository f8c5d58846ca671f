// Package sqlfront compiles a small SQL dialect into L++ transactions,
// automating the Appendix A encoding: bounded relations become 2-D
// arrays, SELECT-FROM-WHERE becomes a sequential scan with if-then-else
// filtering, UPDATE ... WHERE becomes a guarded write per row, INSERT
// uses preallocated free slots tracked with a placeholder key, and
// DELETE resets the slot to the placeholder.
//
// The dialect (one statement per line, a trailing semicolon optional):
//
//	CREATE TABLE t (key, val) SIZE 8
//	SELECT SUM(val) FROM t WHERE key = @k
//	SELECT COUNT(*) FROM t WHERE val > 10
//	UPDATE t SET val = val + @d WHERE key = @k
//	INSERT INTO t VALUES (@k, @v)
//	DELETE FROM t WHERE key = @k
//
// Every column holds an integer; the first column is the key column and
// the placeholder key 0 marks free slots (so user keys must be nonzero,
// as in the Appendix A "suitable placeholder values" scheme). SELECT
// results are emitted with print, making them part of the transaction's
// observable log. Parameters are written @name and become L++
// transaction parameters.
package sqlfront

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/lang"
)

// Table describes a bounded relation.
type Table struct {
	Name string
	Cols []string
	Size int64
}

func (t *Table) colIndex(name string) (int64, error) {
	for i, c := range t.Cols {
		if c == name {
			return int64(i), nil
		}
	}
	return 0, fmt.Errorf("sqlfront: table %s has no column %q", t.Name, name)
}

// Schema is a collection of tables.
type Schema map[string]*Table

// Compile turns a script (CREATE TABLE statements followed by one or
// more DML statements) into a single L++ transaction executing the DML
// in order. The transaction's parameters are the @names in order of
// first appearance.
func Compile(name, script string) (*lang.Transaction, Schema, error) {
	c := &compiler{schema: Schema{}, paramSeen: map[string]bool{}}
	var body []lang.Cmd
	for _, line := range strings.Split(script, "\n") {
		stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ";"))
		if stmt == "" || strings.HasPrefix(stmt, "--") {
			continue
		}
		cmd, err := c.statement(stmt)
		if err != nil {
			return nil, nil, fmt.Errorf("sqlfront: %q: %w", stmt, err)
		}
		if cmd != nil {
			body = append(body, cmd)
		}
	}
	if len(body) == 0 {
		return nil, nil, fmt.Errorf("sqlfront: script has no DML statements")
	}
	txn := &lang.Transaction{
		Name:   name,
		Params: c.params,
		Arrays: c.arrays,
		Body:   lang.SeqOf(body...),
	}
	return txn, c.schema, nil
}

type compiler struct {
	schema    Schema
	arrays    []lang.ArrayDecl
	params    []string
	paramSeen map[string]bool
	nTemp     int
}

func (c *compiler) fresh(prefix string) string {
	c.nTemp++
	return fmt.Sprintf("_%s%d", prefix, c.nTemp)
}

func (c *compiler) statement(stmt string) (lang.Cmd, error) {
	upper := strings.ToUpper(stmt)
	switch {
	case strings.HasPrefix(upper, "CREATE TABLE"):
		return nil, c.createTable(stmt)
	case strings.HasPrefix(upper, "SELECT"):
		return c.selectStmt(stmt)
	case strings.HasPrefix(upper, "UPDATE"):
		return c.updateStmt(stmt)
	case strings.HasPrefix(upper, "INSERT"):
		return c.insertStmt(stmt)
	case strings.HasPrefix(upper, "DELETE"):
		return c.deleteStmt(stmt)
	}
	return nil, fmt.Errorf("unsupported statement")
}

// createTable parses CREATE TABLE t (a, b, c) SIZE n.
func (c *compiler) createTable(stmt string) error {
	open := strings.Index(stmt, "(")
	close := strings.Index(stmt, ")")
	if open < 0 || close < open {
		return fmt.Errorf("malformed CREATE TABLE")
	}
	head := strings.Fields(stmt[:open])
	if len(head) < 3 {
		return fmt.Errorf("malformed CREATE TABLE")
	}
	name := head[2]
	var cols []string
	for _, col := range strings.Split(stmt[open+1:close], ",") {
		cols = append(cols, strings.TrimSpace(col))
	}
	rest := strings.Fields(strings.ToUpper(stmt[close+1:]))
	if len(rest) != 2 || rest[0] != "SIZE" {
		return fmt.Errorf("missing SIZE clause")
	}
	size, err := strconv.ParseInt(rest[1], 10, 64)
	if err != nil || size <= 0 {
		return fmt.Errorf("bad SIZE")
	}
	if _, dup := c.schema[name]; dup {
		return fmt.Errorf("duplicate table %s", name)
	}
	t := &Table{Name: name, Cols: cols, Size: size}
	c.schema[name] = t
	c.arrays = append(c.arrays, lang.ArrayDecl{
		Name: name, Len: size, Cols: int64(len(cols)),
	})
	return nil
}

// operand compiles a literal, @param, or column reference (within row i
// of table t) into an expression.
func (c *compiler) operand(tok string, t *Table, row int64) (lang.Expr, error) {
	tok = strings.TrimSpace(tok)
	if tok == "" {
		return nil, fmt.Errorf("empty operand")
	}
	if strings.HasPrefix(tok, "@") {
		name := tok[1:]
		if strings.HasPrefix(name, "_") {
			// fresh's temporaries (_acc1, _done2, ...) and the lowering's
			// (_lw1, ...) begin with an underscore; a parameter that could
			// share a name with one would read as it wherever the
			// transaction is printed and parsed again.
			return nil, fmt.Errorf("parameter %q: names beginning with _ are reserved for generated temporaries", tok)
		}
		if !c.paramSeen[name] {
			c.paramSeen[name] = true
			c.params = append(c.params, name)
		}
		return lang.Param{Name: name}, nil
	}
	if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return lang.IntLit{Value: v}, nil
	}
	if t == nil {
		return nil, fmt.Errorf("column %q outside a table context", tok)
	}
	col, err := t.colIndex(tok)
	if err != nil {
		return nil, err
	}
	return cellExpr(t, row, col), nil
}

// cellExpr reads row/col of a table (row-major flat index).
func cellExpr(t *Table, row, col int64) lang.Expr {
	return lang.ArrayRead{
		Array: t.Name,
		Index: lang.IntLit{Value: row*int64(len(t.Cols)) + col},
	}
}

// cellWrite writes row/col of a table.
func cellWrite(t *Table, row, col int64, e lang.Expr) lang.Cmd {
	return lang.ArrayWrite{
		Array: t.Name,
		Index: lang.IntLit{Value: row*int64(len(t.Cols)) + col},
		E:     e,
	}
}

// wherePredicate compiles "col OP operand" for one row.
func (c *compiler) wherePredicate(where string, t *Table, row int64) (lang.BoolExpr, error) {
	where = strings.TrimSpace(where)
	if where == "" {
		return lang.BoolLit{Value: true}, nil
	}
	ops := []struct {
		text string
		op   lang.CmpOp
	}{
		{"<=", lang.CmpLE}, {">=", lang.CmpGE}, {"!=", lang.CmpNE},
		{"<", lang.CmpLT}, {">", lang.CmpGT}, {"=", lang.CmpEQ},
	}
	for _, o := range ops {
		if i := strings.Index(where, o.text); i >= 0 {
			l, err := c.operand(where[:i], t, row)
			if err != nil {
				return nil, err
			}
			r, err := c.operand(where[i+len(o.text):], t, row)
			if err != nil {
				return nil, err
			}
			// Exclude free slots: a row participates only when occupied
			// (key column != placeholder 0).
			occupied := lang.Cmp{Op: lang.CmpNE, L: cellExpr(t, row, 0), R: lang.IntLit{Value: 0}}
			return lang.And{L: occupied, R: lang.Cmp{Op: o.op, L: l, R: r}}, nil
		}
	}
	return nil, fmt.Errorf("unsupported WHERE clause %q", where)
}

// selectStmt compiles SELECT SUM(col)|COUNT(*) FROM t WHERE ... into an
// accumulating scan ending in print.
func (c *compiler) selectStmt(stmt string) (lang.Cmd, error) {
	rest := strings.TrimSpace(stmt[len("SELECT"):])
	fromIdx := strings.Index(strings.ToUpper(rest), "FROM")
	if fromIdx < 0 {
		return nil, fmt.Errorf("missing FROM")
	}
	agg := strings.TrimSpace(rest[:fromIdx])
	tail := strings.TrimSpace(rest[fromIdx+len("FROM"):])
	tableName, where := splitWhere(tail)
	t, ok := c.schema[tableName]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", tableName)
	}

	var colFor func(row int64) (lang.Expr, error)
	upperAgg := strings.ToUpper(agg)
	switch {
	case strings.HasPrefix(upperAgg, "SUM(") && strings.HasSuffix(agg, ")"):
		col := strings.TrimSpace(agg[4 : len(agg)-1])
		idx, err := t.colIndex(col)
		if err != nil {
			return nil, err
		}
		colFor = func(row int64) (lang.Expr, error) { return cellExpr(t, row, idx), nil }
	case upperAgg == "COUNT(*)":
		colFor = func(int64) (lang.Expr, error) { return lang.IntLit{Value: 1}, nil }
	default:
		return nil, fmt.Errorf("unsupported projection %q (want SUM(col) or COUNT(*))", agg)
	}

	acc := c.fresh("acc")
	cmds := []lang.Cmd{lang.Assign{Var: acc, E: lang.IntLit{Value: 0}}}
	for row := int64(0); row < t.Size; row++ {
		pred, err := c.wherePredicate(where, t, row)
		if err != nil {
			return nil, err
		}
		val, err := colFor(row)
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, lang.If{
			Cond: pred,
			Then: lang.Assign{Var: acc, E: lang.Bin{Op: lang.OpAdd, L: lang.TempVar{Name: acc}, R: val}},
			Else: lang.Skip{},
		})
	}
	cmds = append(cmds, lang.PrintCmd{E: lang.TempVar{Name: acc}})
	return lang.SeqOf(cmds...), nil
}

// updateStmt compiles UPDATE t SET col = expr WHERE ... into guarded
// writes per row. The SET expression may be "col OP operand" or a single
// operand.
func (c *compiler) updateStmt(stmt string) (lang.Cmd, error) {
	rest := strings.TrimSpace(stmt[len("UPDATE"):])
	setIdx := strings.Index(strings.ToUpper(rest), "SET")
	if setIdx < 0 {
		return nil, fmt.Errorf("missing SET")
	}
	tableName := strings.TrimSpace(rest[:setIdx])
	t, ok := c.schema[tableName]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", tableName)
	}
	tail := strings.TrimSpace(rest[setIdx+len("SET"):])
	assignment, where := splitWhere(tail)
	eq := strings.Index(assignment, "=")
	if eq < 0 {
		return nil, fmt.Errorf("malformed SET")
	}
	colName := strings.TrimSpace(assignment[:eq])
	colIdx, err := t.colIndex(colName)
	if err != nil {
		return nil, err
	}
	rhs := strings.TrimSpace(assignment[eq+1:])

	var cmds []lang.Cmd
	for row := int64(0); row < t.Size; row++ {
		// Compile the SET expression before the WHERE predicate so
		// parameters are collected in textual order.
		val, err := c.arith(rhs, t, row)
		if err != nil {
			return nil, err
		}
		pred, err := c.wherePredicate(where, t, row)
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, lang.If{
			Cond: pred,
			Then: cellWrite(t, row, colIdx, val),
			Else: lang.Skip{},
		})
	}
	return lang.SeqOf(cmds...), nil
}

// arith compiles "a", "a + b" or "a - b" over operands.
func (c *compiler) arith(expr string, t *Table, row int64) (lang.Expr, error) {
	for _, o := range []struct {
		text string
		op   lang.BinOp
	}{{"+", lang.OpAdd}, {"-", lang.OpSub}, {"*", lang.OpMul}} {
		if i := strings.Index(expr, o.text); i > 0 {
			l, err := c.operand(expr[:i], t, row)
			if err != nil {
				return nil, err
			}
			r, err := c.operand(expr[i+1:], t, row)
			if err != nil {
				return nil, err
			}
			return lang.Bin{Op: o.op, L: l, R: r}, nil
		}
	}
	return c.operand(expr, t, row)
}

// insertStmt compiles INSERT INTO t VALUES (v1, v2, ...) into a scan for
// the first free slot (key column = 0); print(1) reports success,
// print(0) a full table.
func (c *compiler) insertStmt(stmt string) (lang.Cmd, error) {
	upper := strings.ToUpper(stmt)
	intoIdx := strings.Index(upper, "INTO")
	valuesIdx := strings.Index(upper, "VALUES")
	if intoIdx < 0 || valuesIdx < intoIdx {
		return nil, fmt.Errorf("malformed INSERT")
	}
	tableName := strings.TrimSpace(stmt[intoIdx+len("INTO") : valuesIdx])
	t, ok := c.schema[tableName]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", tableName)
	}
	vals := strings.TrimSpace(stmt[valuesIdx+len("VALUES"):])
	vals = strings.TrimPrefix(vals, "(")
	vals = strings.TrimSuffix(vals, ")")
	parts := strings.Split(vals, ",")
	if len(parts) != len(t.Cols) {
		return nil, fmt.Errorf("INSERT arity %d, table has %d columns", len(parts), len(t.Cols))
	}
	exprs := make([]lang.Expr, len(parts))
	for i, p := range parts {
		e, err := c.operand(p, nil, 0)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
	}
	done := c.fresh("done")
	cmds := []lang.Cmd{lang.Assign{Var: done, E: lang.IntLit{Value: 0}}}
	for row := int64(0); row < t.Size; row++ {
		free := lang.And{
			L: lang.Cmp{Op: lang.CmpEQ, L: lang.TempVar{Name: done}, R: lang.IntLit{Value: 0}},
			R: lang.Cmp{Op: lang.CmpEQ, L: cellExpr(t, row, 0), R: lang.IntLit{Value: 0}},
		}
		var writes []lang.Cmd
		for col := range t.Cols {
			writes = append(writes, cellWrite(t, row, int64(col), exprs[col]))
		}
		writes = append(writes, lang.Assign{Var: done, E: lang.IntLit{Value: 1}})
		cmds = append(cmds, lang.If{Cond: free, Then: lang.SeqOf(writes...), Else: lang.Skip{}})
	}
	cmds = append(cmds, lang.PrintCmd{E: lang.TempVar{Name: done}})
	return lang.SeqOf(cmds...), nil
}

// deleteStmt compiles DELETE FROM t WHERE ... by resetting matching rows
// to the free-slot placeholder.
func (c *compiler) deleteStmt(stmt string) (lang.Cmd, error) {
	upper := strings.ToUpper(stmt)
	fromIdx := strings.Index(upper, "FROM")
	if fromIdx < 0 {
		return nil, fmt.Errorf("missing FROM")
	}
	tail := strings.TrimSpace(stmt[fromIdx+len("FROM"):])
	tableName, where := splitWhere(tail)
	t, ok := c.schema[tableName]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", tableName)
	}
	var cmds []lang.Cmd
	for row := int64(0); row < t.Size; row++ {
		pred, err := c.wherePredicate(where, t, row)
		if err != nil {
			return nil, err
		}
		var clears []lang.Cmd
		for col := range t.Cols {
			clears = append(clears, cellWrite(t, row, int64(col), lang.IntLit{Value: 0}))
		}
		cmds = append(cmds, lang.If{Cond: pred, Then: lang.SeqOf(clears...), Else: lang.Skip{}})
	}
	return lang.SeqOf(cmds...), nil
}

// splitWhere splits "t WHERE cond" into the head and the condition.
func splitWhere(s string) (head, where string) {
	upper := strings.ToUpper(s)
	if i := strings.Index(upper, "WHERE"); i >= 0 {
		return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+len("WHERE"):])
	}
	return strings.TrimSpace(s), ""
}

// LoadRow writes a row's values into a database at the given slot, the
// test/setup helper counterpart of the compiled transactions.
func LoadRow(db lang.Database, t *Table, slot int64, values ...int64) error {
	if len(values) != len(t.Cols) {
		return fmt.Errorf("sqlfront: row arity %d, table has %d columns", len(values), len(t.Cols))
	}
	if slot < 0 || slot >= t.Size {
		return fmt.Errorf("sqlfront: slot %d out of range", slot)
	}
	for col, v := range values {
		db[lang.ArrayObj(t.Name, slot*int64(len(t.Cols))+int64(col))] = v
	}
	return nil
}
