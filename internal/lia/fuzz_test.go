package lia

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/logic"
)

// The differential fuzzers hold the integer kernel (dense.go) to the
// big.Rat reference (fm.go, solve.go): same verdict, same model, on
// systems small enough to decide in microseconds and wild enough to leave
// int64 — which is the interesting half, because there the kernel must
// notice and hand the call over.
//
//	go test ./internal/lia -run '^$' -fuzz FuzzSolveModel -fuzztime 60s

// fuzzVars is the variable pool of a fuzzed system.
var fuzzVars = []logic.Var{
	logic.Config("a"), logic.Config("b"), logic.Config("c"),
	logic.Config("d"), logic.Config("e"), logic.Obj("x"),
}

// fuzzCoeffs maps a coefficient code to its value: mostly the unit and
// small coefficients of real treaties, a few that overflow when two of
// them meet.
var fuzzCoeffs = [16]int64{0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -7,
	math.MaxInt64, math.MinInt64, 1 << 32, -(1<<62 + 12345)}

// fuzzSystem decodes a byte string into a system: a variable count, then
// rows of one relation byte, one coefficient code per variable and a
// constant, which a mode byte makes small, extreme or arbitrary. It
// returns nil for a system on which elimination could blow up.
func fuzzSystem(data []byte) []Constraint {
	cs := decodeSystem(data)
	if eliminationBound(cs) > 400 {
		return nil
	}
	return cs
}

// eliminationBound is an upper bound on the rows any elimination stage of
// the system holds: Fourier–Motzkin on sign patterns alone, every
// cancellation denied and every equality counted as both bounds.
func eliminationBound(cs []Constraint) int {
	type pattern struct{ pos, neg uint }
	rows := make([]pattern, len(cs))
	for i, c := range cs {
		for j, v := range fuzzVars {
			if x := c.Term.Coeffs[v]; x > 0 || (x != 0 && c.Op == EQ) {
				rows[i].pos |= 1 << j
			}
			if x := c.Term.Coeffs[v]; x < 0 || (x != 0 && c.Op == EQ) {
				rows[i].neg |= 1 << j
			}
		}
	}
	worst := len(rows)
	for j := range fuzzVars {
		bit := uint(1) << j
		var next []pattern
		for _, r := range rows {
			if (r.pos|r.neg)&bit == 0 {
				next = append(next, r)
			}
		}
		for _, lo := range rows {
			for _, up := range rows {
				if lo.neg&bit != 0 && up.pos&bit != 0 {
					next = append(next, pattern{(lo.pos | up.pos) &^ bit, (lo.neg | up.neg) &^ bit})
				}
			}
			if len(next) > 1<<12 {
				return len(next)
			}
		}
		rows = next
		worst = max(worst, len(rows))
	}
	return worst
}

func decodeSystem(data []byte) []Constraint {
	if len(data) == 0 {
		return nil
	}
	nv := 1 + int(data[0])%len(fuzzVars)
	data = data[1:]
	var cs []Constraint
	for len(data) >= nv+2 && len(cs) < 12 {
		t := NewTerm()
		for j := 0; j < nv; j++ {
			t.AddVar(fuzzVars[j], fuzzCoeffs[data[1+j]%16])
		}
		mode := data[nv+1]
		rest := data[nv+2:]
		switch {
		case mode < 160 && len(rest) >= 1:
			t.Const = int64(int8(rest[0]))
			rest = rest[1:]
		case mode < 200:
			t.Const = []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -math.MaxInt64 + 1}[mode%4]
		case len(rest) >= 8:
			t.Const = int64(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
		}
		cs = append(cs, Constraint{Term: t, Op: RelOp(data[0] % 3)})
		data = rest
	}
	return cs
}

// fuzzSeeds are shared by the fuzzers: treaty shapes, equality pivots,
// strict bounds, and the overflow cases — coefficients near MaxInt64 that
// meet in a combination, a chain long enough for products to pile up, and
// single-variable bounds with MinInt64 constants.
func fuzzSeeds(f *testing.F) {
	row := func(op RelOp, coeffs []byte, constant ...byte) []byte {
		return append(append([]byte{byte(op)}, coeffs...), constant...)
	}
	small := func(c int8) []byte { return []byte{0, byte(c)} }
	cat := func(nv byte, rows ...[]byte) []byte {
		out := []byte{nv - 1}
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	// c_a <= -12, c_b <= -7, c_a + c_b >= -20: the optimizer's shape.
	f.Add(cat(2, row(LE, []byte{4, 0}, small(12)...), row(LE, []byte{0, 4}, small(7)...), row(LE, []byte{5, 5}, small(-20)...)))
	// An equality pivot with a non-unit coefficient and a strict bound.
	f.Add(cat(3, row(EQ, []byte{10, 5, 0}, small(1)...), row(LT, []byte{4, 4, 4}, small(-9)...), row(LE, []byte{0, 5, 8}, small(3)...)))
	// MaxInt64 and MinInt64 coefficients meeting in one elimination.
	f.Add(cat(2, row(LE, []byte{12, 4}, small(0)...), row(LE, []byte{13, 5}, small(1)...), row(LE, []byte{5, 12}, small(0)...)))
	// A long chain: every row couples neighbours with growing factors.
	f.Add(cat(6,
		row(LE, []byte{14, 11, 0, 0, 0, 0}, small(1)...), row(LE, []byte{0, 14, 11, 0, 0, 0}, small(1)...),
		row(LE, []byte{0, 0, 14, 11, 0, 0}, small(1)...), row(LE, []byte{0, 0, 0, 14, 11, 0}, small(1)...),
		row(LE, []byte{0, 0, 0, 0, 14, 11}, small(1)...), row(LE, []byte{11, 0, 0, 0, 0, 14}, small(1)...),
		row(LT, []byte{5, 5, 5, 5, 5, 5}, small(0)...)))
	// Single-variable bounds whose constants negate or shift out of range.
	f.Add(cat(2, row(LE, []byte{4, 0}, 160), row(LT, []byte{5, 0}, 161), row(LE, []byte{0, 5}, 162), row(LT, []byte{0, 4}, 163)))
	f.Add(cat(1, row(LE, []byte{5}, 200, 0, 0, 0, 0, 0, 0, 0, 0x80), row(LT, []byte{4}, 200, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)))
}

func FuzzFeasible(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := fuzzSystem(data)
		if got, want := Feasible(cs), FeasibleRat(cs); got != want {
			t.Fatalf("Feasible = %v, reference %v on %v", got, want, cs)
		}
	})
}

func FuzzSolveModel(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := fuzzSystem(data)
		got, ok := model(cs)
		want, wantOK := SolveModelRat(cs)
		if ok != wantOK || len(got) != len(want) {
			t.Fatalf("SolveModel = %v %v, reference %v %v on %v", got, ok, want, wantOK, cs)
		}
		for v, x := range want {
			if got[v] != x {
				t.Fatalf("SolveModel = %v, reference %v on %v", got, want, cs)
			}
		}
		// TightenBounds keeps the integer solutions: probe points drawn
		// from the data, extremes included, satisfy both or neither.
		tight := tightened(cs)
		for p := 0; p+len(fuzzVars) <= len(data) && p < 64; p += len(fuzzVars) {
			point := make(map[logic.Var]int64, len(fuzzVars))
			for j, v := range fuzzVars {
				switch b := data[p+j]; {
				case b < 200:
					point[v] = int64(int8(b))
				case b < 228:
					point[v] = math.MaxInt64 - int64(b-200)
				default:
					point[v] = math.MinInt64 + int64(b-228)
				}
			}
			if a, b := holdsExactly(cs, point), holdsExactly(tight, point); a != b {
				t.Fatalf("point %v: system %v, tightened %v\n%v\n%v", point, a, b, cs, tight)
			}
		}
	})
}

func FuzzImplies(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := fuzzSystem(data)
		if len(cs) == 0 {
			return
		}
		premises, conclusion := cs[:len(cs)-1], cs[len(cs)-1]
		if got, want := implies(premises, conclusion), impliesRat(premises, conclusion); got != want {
			t.Fatalf("Implies = %v, reference %v: %v => %v", got, want, premises, conclusion)
		}
	})
}

// impliesRat is Implies on the reference procedure: premises &&
// !conclusion is infeasible, an equality's negation split into the two
// strict cases.
func impliesRat(premises []Constraint, conclusion Constraint) bool {
	neg := NewTerm()
	neg.AddTerm(conclusion.Term, -1)
	with := func(c Constraint) []Constraint {
		return append(append([]Constraint(nil), premises...), c)
	}
	switch conclusion.Op {
	case LE:
		return !FeasibleRat(with(Constraint{Term: neg, Op: LT}))
	case LT:
		return !FeasibleRat(with(Constraint{Term: neg, Op: LE}))
	}
	return !FeasibleRat(with(Constraint{Term: conclusion.Term, Op: LT})) &&
		!FeasibleRat(with(Constraint{Term: neg, Op: LT}))
}
