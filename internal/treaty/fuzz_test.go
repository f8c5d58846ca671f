package treaty

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"repro/internal/lang"
	"repro/internal/lia"
)

// fuzzObjs are the objects a fuzzed treaty ranges over, in canonical order.
var fuzzObjs = []lang.ObjID{"a", "a@d0", "b", "b@d0"}

var (
	fuzzCoeffs  = []int64{0, 1, -1, 2, -2, 3, -7, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 0, 1, -1, 1, -1, 5}
	fuzzExtreme = []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
)

// fuzzValue draws one int64 from the head of data: mostly small, sometimes
// at the int64 limits, sometimes eight raw bytes.
func fuzzValue(data []byte) (int64, []byte) {
	if len(data) < 2 {
		return 0, nil
	}
	mode, data := data[0], data[1:]
	switch {
	case mode < 180:
		return int64(int8(data[0])), data[1:]
	case mode < 230:
		return fuzzExtreme[data[0]%4], data[1:]
	case len(data) >= 8:
		return int64(binary.LittleEndian.Uint64(data)), data[8:]
	}
	return int64(mode), data[1:]
}

// fuzzLocal decodes a canonical local treaty of up to four constraints —
// a constraint either draws its own coefficients or repeats the previous
// one's terms, as they are or negated, which is how the demarcation shape
// comes about — and then up to eight stores for it.
func fuzzLocal(data []byte) (Local, []lang.Database) {
	l := Local{}
	if len(data) == 0 {
		return l, nil
	}
	l.Site = int(data[0] % 3)
	nc := int(data[0]/3) % 5
	data = data[1:]
	for ; nc > 0 && len(data) >= 2+len(fuzzObjs); nc-- {
		c := Constraint{Op: lia.RelOp(data[0] % 3)}
		shape := data[1]
		coeffs := data[2 : 2+len(fuzzObjs)]
		data = data[2+len(fuzzObjs):]
		switch prev := len(l.Constraints) - 1; {
		case prev >= 0 && shape%4 == 1:
			c.Terms = l.Constraints[prev].Terms
		case prev >= 0 && shape%4 == 2:
			for _, t := range l.Constraints[prev].Terms {
				c.Terms = append(c.Terms, Term{t.Obj, -t.Coeff})
			}
		default:
			for j, obj := range fuzzObjs {
				if coeff := fuzzCoeffs[coeffs[j]%16]; coeff != 0 {
					c.Terms = append(c.Terms, Term{obj, coeff})
				}
			}
		}
		c.Const, data = fuzzValue(data)
		l.Constraints = append(l.Constraints, c)
	}
	var dbs []lang.Database
	for len(data) > 0 && len(dbs) < 8 {
		db := lang.Database{}
		for _, obj := range fuzzObjs {
			db[obj], data = fuzzValue(data)
		}
		dbs = append(dbs, db)
	}
	return l, dbs
}

var (
	bigMin = big.NewInt(math.MinInt64)
	bigMax = big.NewInt(math.MaxInt64)
)

func fitsInt64(x *big.Int) bool { return x.Cmp(bigMin) >= 0 && x.Cmp(bigMax) <= 0 }

// exactSum is Σ terms[i].Coeff·db[terms[i].Obj] + konst in arbitrary
// precision.
func exactSum(terms []Term, konst int64, db lang.Database) *big.Int {
	sum := big.NewInt(konst)
	for _, t := range terms {
		sum.Add(sum, new(big.Int).Mul(big.NewInt(t.Coeff), big.NewInt(db.Get(t.Obj))))
	}
	return sum
}

// holdsExactly evaluates the treaty in arbitrary precision. valuesFit
// reports whether every constraint's value is an int64, which is when
// wrapping int64 arithmetic computes it exactly whatever the order of
// summation; sumsFit the same of every constraint's sum without its
// constant, which is what the interval check computes.
func holdsExactly(l Local, db lang.Database) (holds, valuesFit, sumsFit bool) {
	holds, valuesFit, sumsFit = true, true, true
	for _, c := range l.Constraints {
		sum := exactSum(c.Terms, c.Const, db)
		valuesFit = valuesFit && fitsInt64(sum)
		sumsFit = sumsFit && fitsInt64(exactSum(c.Terms, 0, db))
		if s := sum.Sign(); s > 0 || (s == 0 && c.Op == lia.LT) || (s < 0 && c.Op == lia.EQ) {
			holds = false
		}
	}
	return holds, valuesFit, sumsFit
}

// FuzzLocalHolds is the differential test of the one treaty check. On
// random canonical treaties and stores, constants and values at the int64
// limits included, the flat Compile+Holds must agree
//
//   - always, with the frozen map-based Compile it replaced;
//   - with the arbitrary-precision value wherever every constraint's sum
//     and value fit an int64 — and so does the frozen interpretive Holds
//     (lia.Constraint.Eval) wherever the values do;
//   - on a treaty that compiled to an interval or to false, with the
//     arbitrary-precision value wherever the sums alone fit: the saturation
//     cases compileInterval documents, where adding the constant would leave
//     the int64 range.
func FuzzLocalHolds(f *testing.F) {
	cat := func(head byte, parts ...[]byte) []byte {
		out := []byte{head}
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	con := func(op lia.RelOp, shape byte, coeffs [4]byte, konst ...byte) []byte {
		return append(append([]byte{byte(op), shape}, coeffs[:]...), konst...)
	}
	small := func(v int8) []byte { return []byte{0, byte(v)} }
	extreme := func(i byte) []byte { return []byte{200, i} }
	store := func(vals ...[]byte) []byte { return bytes.Join(vals, nil) }
	// The demarcation shape, 1 <= a + a@d0 <= 66, checked inside and out.
	f.Add(cat(2*3, con(lia.LE, 0, [4]byte{1, 1, 0, 0}, small(-66)...), con(lia.LE, 2, [4]byte{}, small(1)...),
		store(small(60), small(6), small(0), small(0)), store(small(60), small(7), small(0), small(0)),
		store(small(0), small(0), small(0), small(0))))
	// An equality pin and a strict bound on the same sum.
	f.Add(cat(2*3+1, con(lia.EQ, 0, [4]byte{0, 1, 0, 0}, small(-3)...), con(lia.LT, 1, [4]byte{}, small(-4)...),
		store(small(0), small(3), small(0), small(0)), store(small(0), small(2), small(0), small(0))))
	// The general path: two different sums and a ground constraint.
	f.Add(cat(3*3, con(lia.LE, 0, [4]byte{1, 0, 3, 0}, small(-9)...), con(lia.LT, 0, [4]byte{0, 2, 0, 4}, small(5)...),
		con(lia.LE, 0, [4]byte{}, small(-1)...),
		store(small(3), small(-3), small(2), small(0)), store(small(9), small(9), small(9), small(9))))
	// Saturation: s > MaxInt64, s <= 2^63, s = 2^63, s < 2^63, s >= MinInt64.
	f.Add(cat(1*3, con(lia.LT, 0, [4]byte{2, 0, 0, 0}, extreme(1)...),
		store(small(-5), small(0), small(0), small(0)), store(extreme(1), small(0), small(0), small(0))))
	f.Add(cat(1*3, con(lia.LE, 0, [4]byte{1, 0, 0, 0}, extreme(0)...),
		store(extreme(0), small(0), small(0), small(0)), store(small(-1), small(0), small(0), small(0)),
		store(extreme(1), small(0), small(0), small(0))))
	f.Add(cat(2*3, con(lia.EQ, 0, [4]byte{1, 0, 0, 0}, extreme(0)...), con(lia.LT, 1, [4]byte{}, extreme(0)...),
		store(small(0), small(0), small(0), small(0))))
	f.Add(cat(1*3, con(lia.LE, 0, [4]byte{2, 0, 0, 0}, extreme(0)...),
		store(extreme(0), small(0), small(0), small(0)), store(small(-1), small(0), small(0), small(0))))
	// Coefficients at the limits, where a sum's negation is itself.
	f.Add(cat(2*3, con(lia.LE, 0, [4]byte{8, 7, 0, 0}, small(0)...), con(lia.LE, 2, [4]byte{}, small(0)...),
		store(small(1), small(1), small(0), small(0)), store(small(0), small(0), small(0), small(0))))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, dbs := fuzzLocal(data)
		c, err := Compile(l)
		if err != nil {
			t.Fatalf("the generator built a treaty Compile refuses: %v", err)
		}
		ref := refOf(l)
		rc, err := refCompile(ref)
		if err != nil {
			t.Fatal(err)
		}
		if c.interval != rc.interval || c.alwaysFalse != rc.alwaysFalse || (c.interval && (c.lo != rc.lo || c.hi != rc.hi)) {
			t.Fatalf("%s compiles to %+v, reference %+v", l, c, rc)
		}
		for _, db := range dbs {
			got := c.Holds(db)
			if want := rc.Holds(db); got != want {
				t.Fatalf("%s on %v: flat check %v, reference compiled check %v", l, db, got, want)
			}
			exact, valuesFit, sumsFit := holdsExactly(l, db)
			if interp := ref.Holds(db); valuesFit && interp != exact {
				t.Fatalf("%s on %v: interpreted %v, exact %v", l, db, interp, exact)
			}
			// The interval detection reasons about the sums without their
			// constants, so it is exact where those fit — also past the
			// point where adding a constant would wrap, and not where a sum
			// alone wraps though the constraint's value would not (-a at
			// a = MinInt64).
			if sumsFit && (valuesFit || c.interval || c.alwaysFalse) && got != exact {
				t.Fatalf("%s on %v: flat check %v, exact %v", l, db, got, exact)
			}
		}
	})
}
