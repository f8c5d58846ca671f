package lang

import (
	"errors"
	"math"
	"math/big"
	"testing"
)

// TestCheckedArithmeticIsExact: Add64, Sub64 and Mul64 report exactly the
// results that fit an int64, on every pair of values around the limits and
// the square root of the range.
func TestCheckedArithmeticIsExact(t *testing.T) {
	var vals []int64
	for _, v := range []int64{0, 1, 2, 3, 1 << 31, 3037000499, 3037000500, 1 << 32, math.MaxInt64 - 1, math.MaxInt64} {
		vals = append(vals, v, -v)
	}
	vals = append(vals, math.MinInt64, math.MinInt64+1)
	fits := func(x *big.Int) bool { return x.IsInt64() }
	for _, a := range vals {
		for _, b := range vals {
			want := new(big.Int).Add(big.NewInt(a), big.NewInt(b))
			if s, ok := Add64(a, b); ok != fits(want) || ok && s != want.Int64() {
				t.Errorf("Add64(%d, %d) = %d, %v; exact %v", a, b, s, ok, want)
			}
			want.Sub(big.NewInt(a), big.NewInt(b))
			if d, ok := Sub64(a, b); ok != fits(want) || ok && d != want.Int64() {
				t.Errorf("Sub64(%d, %d) = %d, %v; exact %v", a, b, d, ok, want)
			}
			want.Mul(big.NewInt(a), big.NewInt(b))
			if p, ok := Mul64(a, b); ok != fits(want) || ok && p != want.Int64() {
				t.Errorf("Mul64(%d, %d) = %d, %v; exact %v", a, b, p, ok, want)
			}
		}
	}
}

// TestEvalRefusesOverflow: a step of +, -, * or a negation whose value
// leaves int64 is an *OverflowError naming it, and the transaction writes
// nothing: Eval returns no database, and EvalIn stops before the write the
// step was part of. A value at the limit itself evaluates.
func TestEvalRefusesOverflow(t *testing.T) {
	for _, tc := range []struct {
		src  string
		args []int64
		want *OverflowError // nil: evaluates
	}{
		{"transaction D(n) { v := read(b); write(b = v + n) }", []int64{1}, nil},
		{"transaction D(n) { v := read(b); write(b = v + n) }", []int64{2}, &OverflowError{OpAdd, math.MaxInt64 - 1, 2}},
		{"transaction D(n) { v := read(b); write(c = 0 - v - n - n) }", []int64{1}, nil},
		{"transaction D(n) { v := read(b); write(c = 0 - v - n - n - n) }", []int64{1}, &OverflowError{OpSub, math.MinInt64, 1}},
		{"transaction D(n) { v := read(b); write(c = v * n) }", []int64{2}, &OverflowError{OpMul, math.MaxInt64 - 1, 2}},
		{"transaction D(n) { write(c = -n) }", []int64{math.MinInt64}, &OverflowError{OpSub, 0, math.MinInt64}},
		{"transaction D(n) { v := read(b); write(c = 1); write(b = v + n) }", []int64{2}, &OverflowError{OpAdd, math.MaxInt64 - 1, 2}},
	} {
		txn, err := ParseTransaction(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		db := Database{"b": math.MaxInt64 - 1}
		if tc.want == nil {
			if _, err := Eval(txn, db, tc.args...); err != nil {
				t.Errorf("%s%v: %v", tc.src, tc.args, err)
			}
			continue
		}
		var oe *OverflowError
		res, err := Eval(txn, db, tc.args...)
		if !errors.As(err, &oe) || *oe != *tc.want || res.DB != nil {
			t.Errorf("%s%v: (%v, %v), want %v", tc.src, tc.args, res.DB, err, tc.want)
		}
		writes := 0
		env := &Env{DB: db.Clone(), WriteFn: func(ObjID, int64) { writes++ }}
		if err := EvalIn(txn, env, tc.args...); !errors.As(err, &oe) || writes > 1 {
			t.Errorf("%s%v in place: %v after %d writes", tc.src, tc.args, err, writes)
		}
	}
}

// TestSimplifyKeepsOverflows: Simplify folds with checked arithmetic, so
// the simplified program fails with an *OverflowError wherever lang.Eval of
// the source does — a constant sum or product past int64 stays unfolded,
// and a false right side of && does not absorb a left side that
// overflows — and evaluates as the source does where it fits, a constant
// of -2^63 included.
func TestSimplifyKeepsOverflows(t *testing.T) {
	for _, tc := range []struct {
		src      string
		x        int64
		overflow bool
	}{
		{"transaction T() { write(y = 9223372036854775807 + 1) }", 0, true},
		{"transaction T() { write(y = 2 * 4611686018427387904) }", 0, true},
		{"transaction T() { if (read(x) * 4611686018427387904 > 0 && 1 = 2) then write(y = 1) else write(y = 2) }", 4, true},
		{"transaction T() { if (read(x) * 4611686018427387904 > 0 || 1 = 1) then write(y = 1) else write(y = 2) }", 4, true},
		{"transaction T() { write(y = 0 * (read(x) * 4611686018427387904)) }", 4, true},
		{"transaction T() { write(y = read(x) - 9223372036854775807 - 1) }", 5, false},
		{"transaction T() { if (read(x) * 4611686018427387904 > 0 && 1 = 2) then write(y = 1) else write(y = 2) }", 1, false},
	} {
		src := MustParse(tc.src)
		simple := Simplify(src)
		db := Database{"x": tc.x}
		want, werr := Eval(src, db)
		got, gerr := Eval(simple, db)
		var oe *OverflowError
		if errors.As(werr, &oe) != tc.overflow {
			t.Fatalf("%s at x = %d: the source evaluates to %v", tc.src, tc.x, werr)
		}
		if tc.overflow {
			if !errors.As(gerr, &oe) {
				t.Errorf("%s at x = %d: the source overflows, %s evaluates to (%v, %v)", tc.src, tc.x, simple, got.DB, gerr)
			}
			continue
		}
		if gerr != nil || !got.DB.Equal(want.DB) {
			t.Errorf("%s at x = %d: source %v, %s (%v, %v)", tc.src, tc.x, want.DB, simple, got.DB, gerr)
		}
	}
}
