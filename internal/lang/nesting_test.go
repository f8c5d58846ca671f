package lang

import (
	"errors"
	"runtime/debug"
	"strings"
	"testing"
)

// nestingStack is the goroutine stack the nesting tests allow: a source
// at the bound must parse, lower and evaluate inside it, and one nested
// a few hundred times deeper does not fit in it unless refused early.
const nestingStack = 4 << 20

// nested is a transaction nested in one shape.
type nested struct{ shape, src string }

// nestedSources returns, per shape of nesting, a transaction n levels
// deep plus two (a command and the innermost factor, or the last command
// and its operand), which writes o = 1 when n is even: the parser's own
// recursion (parentheses, braces), the tree it builds (sequences and
// operator chains, which it parses by iterating), or both (unary minus,
// !, if).
func nestedSources(n int) []nested {
	rep := strings.Repeat
	return []nested{
		{"parentheses", "transaction T() { write(o = " + rep("(", n) + "1" + rep(")", n) + ") }"},
		{"minus", "transaction T() { write(o = " + rep("-", n) + "1) }"},
		{"sum", "transaction T() { write(o = 1" + rep(" + 0", n) + ") }"},
		{"product", "transaction T() { write(o = 1" + rep(" * 1", n) + ") }"},
		{"not", "transaction T() { if " + rep("!", n) + "true then write(o = 1) else write(o = 2) }"},
		{"and", "transaction T() { if true" + rep(" && true", n) + " then write(o = 1) else write(o = 2) }"},
		{"if", "transaction T() { " + rep("if true then ", n) + "write(o = 1) }"},
		{"braces", "transaction T() { " + rep("{ ", n) + "write(o = 1)" + rep(" }", n) + " }"},
		{"sequence", "transaction T() { " + rep("x := 1; ", n) + "write(o = 1) }"},
	}
}

// withMaxStack runs f with the process's maximum goroutine stack set to
// size, and restores it.
func withMaxStack(size int, f func()) {
	defer debug.SetMaxStack(debug.SetMaxStack(size))
	f()
}

// TestParserRefusesNestingPastTheLimit: every shape of nesting parses,
// lowers and evaluates at the bound inside a small stack, and is refused
// one level past it with a *NestingError — and so is one nested two
// hundred times deeper, which would otherwise overflow that stack in the
// parser or in the passes after it and kill the test process.
func TestParserRefusesNestingPastTheLimit(t *testing.T) {
	withMaxStack(nestingStack, func() {
		for _, tc := range nestedSources(maxNesting - 2) {
			txn, err := ParseTransaction(tc.src)
			if err != nil {
				t.Errorf("%s at the bound: %v", tc.shape, err)
				continue
			}
			low, err := Lower(txn)
			if err != nil {
				t.Errorf("%s at the bound: lowering: %v", tc.shape, err)
				continue
			}
			if res, err := Eval(low, Database{}); err != nil || res.DB.Get("o") != 1 {
				t.Errorf("%s at the bound evaluates to o = %d, %v; want 1", tc.shape, res.DB.Get("o"), err)
			}
		}
		for _, n := range []int{maxNesting - 1, 200 * maxNesting} {
			for _, tc := range nestedSources(n) {
				_, err := ParseTransaction(tc.src)
				var nesting *NestingError
				if !errors.As(err, &nesting) || nesting.Limit != maxNesting {
					t.Errorf("%s, %d levels past the bound: %v, want a *NestingError", tc.shape, n+2-maxNesting, err)
				}
			}
		}
	})
}
