package lang

import (
	"fmt"
	"slices"
)

// Parser implements a recursive-descent parser for the L / L++ surface
// syntax. A program is a sequence of transaction declarations:
//
//	transaction T1(p, q) {
//	    x' := read(x);
//	    if (x' + p < 10) then
//	        write(x = x' + 1)
//	    else
//	        write(x = x' - 1)
//	}
//
// L++ additions: array declarations inside a transaction and indexed
// access:
//
//	transaction Insert(i, v) {
//	    array temps[24];
//	    write(temps(i) = v);
//	    print(temps(0))
//	}
//
// Relations are declared as "relation r[rows, cols];" and accessed as
// r(i, j), which is sugar for the row-major cell r(i*cols + j)
// (Appendix A).
type parser struct {
	toks []token
	pos  int
	// params are the parameters of the current transaction: its header is
	// read before its body, so a bare identifier in the body is known for a
	// parameter or a temporary where it stands.
	params []string
	// relation widths in scope of the current transaction; plain arrays
	// have width 1. Nil until the transaction declares one.
	arrays map[string]ArrayDecl
	// depth is how many commands, boolean factors and arithmetic factors
	// the parse is inside of (nest).
	depth int
	// taken counts the tokens the parse has taken, as the measure of its
	// work: it never backs up, so no more than there are.
	taken int
}

// maxNesting bounds depth, and the depth of the tree a body parses to.
// Every level costs the parser, and the passes and evaluator that recurse
// over the tree, up to a kilobyte of stack, and a goroutine that outgrows
// its maximum stack kills the process: no recover catches that. At the
// bound a source parses, lowers and evaluates in a few megabytes of
// stack; a body of a few megabytes could otherwise nest millions of
// levels.
const maxNesting = 1000

// NestingError reports a source nested deeper than the parser accepts:
// commands (if, braces), boolean factors (!, parentheses) and arithmetic
// factors (unary minus, parentheses) inside one another, all counted
// together, or a body whose tree is deeper than that, where each command
// of a sequence and each operator of a chain is a level too.
type NestingError struct {
	// Line is where the level past Limit opens, or the transaction's
	// header when its tree is what is too deep.
	Line  int
	Limit int
}

func (e *NestingError) Error() string {
	return fmt.Sprintf("lang: line %d: nested deeper than %d levels", e.Line, e.Limit)
}

// nest enters one more level of nesting, refusing the level past
// maxNesting. Every recursion of the parser passes through one of the
// three functions that call it, each of which leaves the level on return.
func (p *parser) nest() error {
	if p.depth == maxNesting {
		return &NestingError{Line: int(p.peek().line), Limit: maxNesting}
	}
	p.depth++
	return nil
}

// depthProbe is a pass that only looks: it finds whether a tree has a
// node more than maxNesting levels down. The parser builds a sequence of
// commands and a chain of operators by iterating, so nest does not count
// them, but every pass after it recurses a level a command or operator.
// The probe descends no further than the bound, so it runs in bounded
// stack however deep the tree is.
type depthProbe struct {
	depth int
	over  bool
}

// tooDeep reports whether c has a node more than maxNesting levels down.
func tooDeep(c Cmd) bool {
	d := &depthProbe{}
	d.cmd(c)
	return d.over
}

// enter goes one level down, and reports whether the probe is still
// within the bound.
func (d *depthProbe) enter() bool {
	if d.depth++; d.depth > maxNesting {
		d.over = true
	}
	return !d.over
}

func (d *depthProbe) expr(e Expr) (Expr, bool) {
	if d.enter() {
		mapExpr(d, e)
	}
	d.depth--
	return e, false
}

func (d *depthProbe) boolExpr(b BoolExpr) (BoolExpr, bool) {
	if d.enter() {
		mapBool(d, b)
	}
	d.depth--
	return b, false
}

func (d *depthProbe) cmd(c Cmd) (Cmd, bool) {
	if d.enter() {
		mapCmd(d, c)
	}
	d.depth--
	return c, false
}

// ParseProgram parses a whole program: one or more transaction
// declarations.
func ParseProgram(src string) ([]*Transaction, error) {
	out, _, err := parseProgram(src)
	return out, err
}

// parseProgram is ParseProgram, and the tokens the parse took.
func parseProgram(src string) ([]*Transaction, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	var out []*Transaction
	for p.peek().kind != tokEOF {
		t, err := p.parseTransaction()
		if err != nil {
			return nil, p.taken, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, p.taken, fmt.Errorf("lang: no transactions in program")
	}
	return out, p.taken, nil
}

// ParseTransaction parses a single transaction declaration.
func ParseTransaction(src string) (*Transaction, error) {
	ts, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(ts) != 1 {
		return nil, fmt.Errorf("lang: expected 1 transaction, found %d", len(ts))
	}
	return ts[0], nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) advance() token {
	p.taken++
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return errAt(p.peek(), format, args...)
}

// errAt reports an error at token t.
func errAt(t token, format string, args ...any) error {
	return fmt.Errorf("lang: line %d: %s (at %q)", t.line,
		fmt.Sprintf(format, args...), t.text)
}

// isParam reports whether name is a parameter of the current transaction.
// Parameter lists are a handful of names: a scan beats a set.
func (p *parser) isParam(name string) bool { return slices.Contains(p.params, name) }

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errf("expected %s", what)
	}
	return p.advance(), nil
}

func (p *parser) parseTransaction() (*Transaction, error) {
	start := p.pos
	if _, err := p.expect(tokTxn, "'transaction'"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "transaction name")
	if err != nil {
		return nil, err
	}
	t := &Transaction{Name: name.text}
	p.params = nil
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	for p.peek().kind != tokRParen {
		id, err := p.expect(tokIdent, "parameter name")
		if err != nil {
			return nil, err
		}
		if p.isParam(id.text) {
			return nil, errAt(id, "duplicate parameter %q", id.text)
		}
		t.Params = append(t.Params, id.text)
		p.params = t.Params
		if p.peek().kind == tokComma {
			p.advance()
		}
	}
	p.advance() // )
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	p.arrays = nil
	// Array / relation declarations come first.
	for p.peek().kind == tokArray || p.peek().kind == tokRelation {
		d, err := p.parseArrayDecl()
		if err != nil {
			return nil, err
		}
		t.Arrays = append(t.Arrays, d)
		if p.arrays == nil {
			p.arrays = make(map[string]ArrayDecl)
		}
		p.arrays[d.Name] = d
	}
	body, err := p.parseCmdSeq()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace, "'}'"); err != nil {
		return nil, err
	}
	// A tree has no more nodes than the tokens it was parsed from, so only
	// a long source needs probing.
	if p.pos-start > maxNesting && tooDeep(body) {
		return nil, &NestingError{Line: int(name.line), Limit: maxNesting}
	}
	t.Body = body
	return t, nil
}

// maxCells bounds the cells an array or relation declares: the lowering
// builds a conditional per cell for each access at a computed index. It
// admits a relation of sqlfront.MaxRows rows and 64 columns.
const maxCells = 1 << 16

// parseArrayDecl parses "array a[N];" or "relation r[N, M];".
func (p *parser) parseArrayDecl() (ArrayDecl, error) {
	isRel := p.peek().kind == tokRelation
	p.advance()
	name, err := p.expect(tokIdent, "array name")
	if err != nil {
		return ArrayDecl{}, err
	}
	// We reuse '(' ... ')' or bracket-free forms: the surface syntax is
	// array a(N); to keep the token set small.
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return ArrayDecl{}, err
	}
	n, err := p.expect(tokInt, "array length")
	if err != nil {
		return ArrayDecl{}, err
	}
	d := ArrayDecl{Name: name.text, Len: n.ival, Cols: 1}
	if isRel {
		if _, err := p.expect(tokComma, "','"); err != nil {
			return ArrayDecl{}, err
		}
		m, err := p.expect(tokInt, "relation width")
		if err != nil {
			return ArrayDecl{}, err
		}
		d.Cols = m.ival
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return ArrayDecl{}, err
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return ArrayDecl{}, err
	}
	if d.Len <= 0 || d.Cols <= 0 || d.Len > maxCells/d.Cols {
		return ArrayDecl{}, fmt.Errorf("lang: array %s declares %d×%d cells, not 1 to %d", d.Name, d.Len, d.Cols, maxCells)
	}
	return d, nil
}

// parseCmdSeq parses a ';'-separated sequence of commands.
func (p *parser) parseCmdSeq() (Cmd, error) {
	var buf [4]Cmd // most bodies and branches are a few commands long
	cmds := buf[:0]
	for {
		c, err := p.parseCmd()
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, c)
		if p.peek().kind == tokSemi {
			p.advance()
			// allow a trailing semicolon before '}' / 'else' / EOF
			k := p.peek().kind
			if k == tokRBrace || k == tokElse || k == tokEOF {
				break
			}
			continue
		}
		break
	}
	return SeqOf(cmds...), nil
}

func (p *parser) parseCmd() (Cmd, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	switch p.peek().kind {
	case tokSkip:
		p.advance()
		return Skip{}, nil
	case tokIf:
		return p.parseIf()
	case tokWrite:
		return p.parseWrite()
	case tokPrint:
		p.advance()
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return PrintCmd{E: e}, nil
	case tokLBrace:
		p.advance()
		c, err := p.parseCmdSeq()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrace, "'}'"); err != nil {
			return nil, err
		}
		return c, nil
	case tokIdent:
		name := p.advance()
		if _, err := p.expect(tokAssign, "':='"); err != nil {
			return nil, err
		}
		// Parameters are bound by the invocation. An assignment to one
		// would bind a temporary of the same name that no later read sees.
		if p.isParam(name.text) {
			return nil, errAt(name, "cannot assign to parameter %q", name.text)
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return Assign{Var: name.text, E: e}, nil
	}
	return nil, p.errf("expected a command")
}

func (p *parser) parseIf() (Cmd, error) {
	p.advance() // if
	cond, err := p.parseBool()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokThen, "'then'"); err != nil {
		return nil, err
	}
	thenC, err := p.parseCmd()
	if err != nil {
		return nil, err
	}
	var elseC Cmd = Skip{}
	if p.peek().kind == tokElse {
		p.advance()
		elseC, err = p.parseCmd()
		if err != nil {
			return nil, err
		}
	}
	return If{Cond: cond, Then: thenC, Else: elseC}, nil
}

// parseWrite parses write(x = e) or write(a(i) = e) or write(r(i, j) = e).
func (p *parser) parseWrite() (Cmd, error) {
	p.advance() // write
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "object or array name")
	if err != nil {
		return nil, err
	}
	var target Cmd
	if p.peek().kind == tokLParen {
		// array / relation write
		if _, ok := p.arrays[name.text]; !ok {
			return nil, p.errf("write to undeclared array %q", name.text)
		}
		idx, err := p.parseIndex(name.text)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEq, "'='"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		target = ArrayWrite{Array: name.text, Index: idx, E: e}
	} else {
		if _, err := p.expect(tokEq, "'='"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		target = WriteCmd{Obj: ObjID(name.text), E: e}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return target, nil
}

// parseIndex parses "(i)" or "(i, j)" after an array name, returning the
// flat row-major index expression.
func (p *parser) parseIndex(array string) (Expr, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	i, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokComma {
		p.advance()
		j, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d, ok := p.arrays[array]
		if !ok {
			return nil, fmt.Errorf("lang: undeclared relation %q", array)
		}
		if d.Cols <= 1 {
			return nil, fmt.Errorf("lang: %q is not a relation", array)
		}
		// r(i, j) => flat index i*Cols + j (Appendix A row-major layout).
		i = Bin{Op: OpAdd, L: Bin{Op: OpMul, L: i, R: IntLit{Value: d.Cols}}, R: j}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return i, nil
}

// Boolean expression grammar: bor := band ('||' band)*;
// band := bunary ('&&' bunary)*; bunary := '!' bunary | '(' bor ')' |
// true | false | cmp.
func (p *parser) parseBool() (BoolExpr, error) { return p.parseBoolFrom(nil) }

// parseBoolFrom parses a disjunction whose first factor is first when that
// is not nil.
func (p *parser) parseBoolFrom(first BoolExpr) (BoolExpr, error) {
	l, err := p.parseBoolAnd(first)
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOrOr {
		p.advance()
		r, err := p.parseBoolAnd(nil)
		if err != nil {
			return nil, err
		}
		l = Or{L: l, R: r}
	}
	return l, nil
}

// parseBoolAnd parses a conjunction whose first factor is first when that
// is not nil.
func (p *parser) parseBoolAnd(first BoolExpr) (BoolExpr, error) {
	l, err := first, error(nil)
	if l == nil {
		l, err = p.parseBoolUnary()
	}
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokAndAnd {
		p.advance()
		r, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseBoolUnary() (BoolExpr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	switch p.peek().kind {
	case tokBang:
		p.advance()
		b, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		return Not{B: b}, nil
	case tokTrue:
		p.advance()
		return BoolLit{Value: true}, nil
	case tokFalse:
		p.advance()
		return BoolLit{Value: false}, nil
	case tokLParen:
		// '(' opens a parenthesized boolean or the first factor of a
		// comparison's left operand; the group says which once it is read.
		b, e, err := p.parseGroup()
		if err != nil || b != nil {
			return b, err
		}
		if b, e, err = p.operand(e); err == nil && b == nil {
			err = p.errf("expected a comparison operator")
		}
		return b, err
	default:
		return p.parseCmp()
	}
}

// parseGroup reads a parenthesized group where a boolean factor may stand:
// a boolean, or an arithmetic operand (then e is set). It reads every token
// once — trying one reading and backing up to the other costs a group
// nested d deep O(d²) — by parsing the inside until it shows which it is:
// a boolean starts with '!', true or false, and an operand followed by a
// comparison operator is a comparison.
func (p *parser) parseGroup() (b BoolExpr, e Expr, err error) {
	switch p.peek2().kind {
	case tokBang, tokTrue, tokFalse:
		// A boolean's first factor takes the group's level, as when every
		// group was first read as a boolean.
		p.advance() // (
		b, err = p.parseBool()
	default:
		if err := p.nest(); err != nil {
			return nil, nil, err
		}
		p.advance() // (
		if p.peek().kind == tokLParen {
			if b, e, err = p.parseGroup(); err == nil && e != nil {
				b, e, err = p.operand(e)
			}
		} else {
			b, e, err = p.operand(nil)
		}
		p.depth--
	}
	if err == nil && b != nil {
		b, err = p.parseBoolFrom(b)
	}
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, nil, err
	}
	return b, e, nil
}

// operand parses an arithmetic operand, whose first factor is first when
// that is not nil, and the comparison it is the left side of when a
// comparison operator follows: then b is set, otherwise e.
func (p *parser) operand(first Expr) (b BoolExpr, e Expr, err error) {
	l, err := p.parseExprFrom(first)
	if err != nil || !isCmpToken(p.peek().kind) {
		return nil, l, err
	}
	op := cmpOpFor(p.advance().kind)
	r, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	return Cmp{Op: op, L: l, R: r}, nil, nil
}

func isCmpToken(k tokenKind) bool {
	switch k {
	case tokLT, tokLE, tokGT, tokGE, tokEq, tokNE:
		return true
	}
	return false
}

func cmpOpFor(k tokenKind) CmpOp {
	switch k {
	case tokLT:
		return CmpLT
	case tokLE:
		return CmpLE
	case tokGT:
		return CmpGT
	case tokGE:
		return CmpGE
	case tokEq:
		return CmpEQ
	case tokNE:
		return CmpNE
	}
	panic("lang: not a comparison token")
}

func (p *parser) parseCmp() (BoolExpr, error) {
	l, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !isCmpToken(p.peek().kind) {
		return nil, p.errf("expected a comparison operator")
	}
	op := cmpOpFor(p.advance().kind)
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return Cmp{Op: op, L: l, R: r}, nil
}

// Arithmetic grammar: expr := term (('+' | '-') term)*;
// term := unary ('*' unary)*; unary := '-' unary | atom.
func (p *parser) parseExpr() (Expr, error) { return p.parseExprFrom(nil) }

// parseExprFrom parses a sum whose first factor is first when that is not
// nil.
func (p *parser) parseExprFrom(first Expr) (Expr, error) {
	l, err := p.parseTerm(first)
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokPlus:
			p.advance()
			r, err := p.parseTerm(nil)
			if err != nil {
				return nil, err
			}
			l = Bin{Op: OpAdd, L: l, R: r}
		case tokMinus:
			p.advance()
			r, err := p.parseTerm(nil)
			if err != nil {
				return nil, err
			}
			l = Bin{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

// parseTerm parses a product whose first factor is first when that is not
// nil.
func (p *parser) parseTerm(first Expr) (Expr, error) {
	l, err := first, error(nil)
	if l == nil {
		l, err = p.parseUnary()
	}
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokStar {
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpMul, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	if p.peek().kind == tokMinus {
		p.advance()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Neg{E: e}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Expr, error) {
	switch p.peek().kind {
	case tokInt:
		t := p.advance()
		return IntLit{Value: t.ival}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokRead:
		p.advance()
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		id, err := p.expect(tokIdent, "object name")
		if err != nil {
			return nil, err
		}
		if p.peek().kind == tokLParen {
			// read(a(i)): array read
			if _, ok := p.arrays[id.text]; !ok {
				return nil, p.errf("read of undeclared array %q", id.text)
			}
			idx, err := p.parseIndex(id.text)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
			return ArrayRead{Array: id.text, Index: idx}, nil
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return Read{Obj: ObjID(id.text)}, nil
	case tokIdent:
		name := p.advance().text
		if p.peek().kind == tokLParen {
			if _, ok := p.arrays[name]; ok {
				idx, err := p.parseIndex(name)
				if err != nil {
					return nil, err
				}
				return ArrayRead{Array: name, Index: idx}, nil
			}
			return nil, p.errf("call of undeclared array %q", name)
		}
		// A bare identifier is a parameter when the header declared it and
		// a temporary variable otherwise.
		if p.isParam(name) {
			return Param{Name: name}, nil
		}
		return TempVar{Name: name}, nil
	}
	return nil, p.errf("expected an expression")
}

// MustParse parses a single transaction, panicking on error. Intended for
// tests, examples, and static workload definitions.
func MustParse(src string) *Transaction {
	t, err := ParseTransaction(src)
	if err != nil {
		panic(err)
	}
	return t
}
