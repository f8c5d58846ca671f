package lang

import (
	"errors"
	"reflect"
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

// deepGroups returns conditions with groups n parentheses deep: one that
// is the first factor of a comparison's left operand, one that is a
// boolean, and both in one condition. The parser knows which a group is
// only once it has read it.
func deepGroups(n int) []string {
	open, close := strings.Repeat("(", n), strings.Repeat(")", n)
	return []string{
		"transaction T() { if " + open + "1" + close + " < 2 then write(o = 1) else write(o = 2) }",
		"transaction T() { if " + open + "1 < 2" + close + " then write(o = 1) else write(o = 2) }",
		"transaction T() { if " + open + "true" + close + " && " + open + "1" + close + " * 3 < 4 then write(o = 1) else write(o = 2) }",
	}
}

// TestDeepGroupsParseInLinearWork: a group nested as deep as the bound
// allows parses, taking each token once. Read first as a boolean and, that
// failing, again as arithmetic at every level, the first source took
// 997 024 tokens for its 2 058 bytes (60 ms).
func TestDeepGroupsParseInLinearWork(t *testing.T) {
	for _, src := range deepGroups(maxNesting - 3) {
		txns, taken, err := parseProgram(src)
		if err != nil {
			t.Fatalf("%.40q…: %v", src, err)
		}
		if taken > len(src) {
			t.Fatalf("%.40q…: %d bytes took %d tokens", src, len(src), taken)
		}
		if res, err := Eval(txns[0], Database{}); err != nil || res.DB.Get("o") != 1 {
			t.Fatalf("%.40q… evaluates to o = %d, %v; want 1", src, res.DB.Get("o"), err)
		}
	}
}

// TestPrintedFormParses: the printed form of a tree the parser accepted
// parses back to that tree, also at the nesting bound, where a printer
// that spends two levels on one node (a parenthesis for each negation,
// braces for each branch) writes a source the parser refuses.
func TestPrintedFormParses(t *testing.T) {
	srcs := deepGroups(maxNesting - 3)
	for _, n := range nestedSources(maxNesting - 2) {
		srcs = append(srcs, n.src)
	}
	srcs = append(srcs,
		"transaction T() { write(o = "+strings.Repeat("-", 600)+"1) }",
		"transaction T() { "+strings.Repeat("if !true then skip else ", 600)+"skip }",
		"transaction T() { x := 1"+strings.Repeat(" - (1", 490)+strings.Repeat(")", 490)+" }",
		"transaction T() { if true"+strings.Repeat(" && (true", 480)+strings.Repeat(")", 480)+" then skip }",
		"transaction T() { {{ skip; skip }; skip }; skip }")
	for _, src := range srcs {
		txn, err := ParseTransaction(src)
		if err != nil {
			t.Fatalf("%.60q…: %v", src, err)
		}
		printed := sourceOf(txn)
		again, err := ParseTransaction(printed)
		if err != nil {
			t.Fatalf("%.60q… prints as %.60q…, which does not parse: %v", src, printed, err)
		}
		if !reflect.DeepEqual(again, txn) {
			t.Fatalf("%.60q… prints as %.60q…, which parses to another tree", src, printed)
		}
	}
}
