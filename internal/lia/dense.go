package lia

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/logic"
)

// This file is the integer kernel: the Fourier–Motzkin procedure of fm.go
// and solve.go on dense int64 rows. It decides exactly the same rational
// relaxation and picks exactly the same model, because every row it holds
// is a positive integer multiple of the rational row the reference holds
// at the same step:
//
//   - a lower×upper combination up*(-lc) + lo*uc is already integral;
//   - an equality pivot scales the substituted row by |coeff| instead of
//     dividing the pivot by coeff;
//   - rows are divided by the gcd of their entries, a positive factor;
//   - back-substitution compares the bounds -rest/coeff as exact fractions
//     (128-bit cross products) and rounds them with floor/ceil quotients.
//
// Every multiply, add and negate is overflow-checked; when one leaves
// int64 the call restarts on the reference procedure, so the answer never
// depends on which path ran.

// System is a conjunction of linear constraints held as dense rows over a
// fixed table of variables. Row r reads
//
//	sum_j row[j]*vars[j] + row[len(vars)]  (op)  0
//
// The table is sorted, and its order is the elimination order. A System
// owns the storage a solve needs and keeps it across Reset, so a caller
// that holds one (or takes one from the package pool through the
// slice-of-Constraint entry points) solves without allocating.
//
// Feasible, SolveModel and ImpliesLast leave the rows as they found them.
type System struct {
	vars []logic.Var
	w    int // row width: len(vars) coefficients and the constant
	rows []int64
	ops  []RelOp

	// Solve scratch. stages[j] spans the rows of the system from which
	// column j is eliminated (columns < j are zero in it).
	stages []span
	uppers []int
	vals   []int64
	bnd    []bound
	table  []logic.Var // backing store of vars when load builds the table
}

type span struct{ from, to int }

// bound is TightenBounds' per-column state.
type bound struct {
	lo, hi       int64
	hasLo, hasHi bool
}

// systems recycles Systems for the slice-of-Constraint entry points.
var systems = sync.Pool{New: func() any { return new(System) }}

// Reset empties the system and sets its variable table, which must be in
// logic.SortVars order without duplicates and is not copied.
func (s *System) Reset(vars []logic.Var) {
	s.vars = vars
	s.w = len(vars) + 1
	s.rows = s.rows[:0]
	s.ops = s.ops[:0]
}

// Set makes the system a copy of src: the same table, the same rows.
func (s *System) Set(src *System) {
	s.Reset(src.vars)
	s.rows = append(s.rows, src.rows...)
	s.ops = append(s.ops, src.ops...)
}

// Len returns the number of rows.
func (s *System) Len() int { return len(s.ops) }

// Truncate drops every row from index n on.
func (s *System) Truncate(n int) {
	s.rows = s.rows[:n*s.w]
	s.ops = s.ops[:n]
}

// Row returns row r: the coefficients in table order, then the constant.
func (s *System) Row(r int) []int64 { return s.rows[r*s.w : (r+1)*s.w] }

// AddRow appends an all-zero row with relation op and returns it for the
// caller to fill. The slice is valid until the next row is added.
//
//homeo:hotpath
func (s *System) AddRow(op RelOp) []int64 {
	base := len(s.rows)
	s.rows = slices.Grow(s.rows, s.w)[:base+s.w]
	s.ops = append(s.ops, op)
	row := s.rows[base:]
	clear(row)
	return row
}

// Add appends a constraint whose variables are all in the table.
func (s *System) Add(c Constraint) {
	row := s.AddRow(c.Op)
	row[s.w-1] = c.Term.Const
	for v, coeff := range c.Term.Coeffs {
		j, ok := slices.BinarySearchFunc(s.vars, v, logic.CompareVars)
		if !ok {
			panic("lia: constraint mentions " + v.String() + ", which is not in the system's table")
		}
		row[j] = coeff
	}
}

// load resets the system to the first group's constraints, over the table
// of the variables all groups mention.
func (s *System) load(groups ...[]Constraint) {
	table := s.table[:0]
	for _, cs := range groups {
		for _, c := range cs {
			for v := range c.Term.Coeffs {
				table = append(table, v)
			}
		}
	}
	logic.SortVars(table)
	table = slices.Compact(table)
	s.table = table
	s.Reset(table)
	for _, c := range groups[0] {
		s.Add(c)
	}
}

// Constraints returns the rows as constraints.
func (s *System) Constraints() []Constraint {
	out := make([]Constraint, s.Len())
	for r := range out {
		row := s.Row(r)
		t := Term{Coeffs: make(map[logic.Var]int64), Const: row[s.w-1]}
		for j, v := range s.vars {
			if row[j] != 0 {
				t.Coeffs[v] = row[j]
			}
		}
		out[r] = Constraint{Term: t, Op: s.ops[r]}
	}
	return out
}

// Feasible reports whether the conjunction of constraints has a rational
// solution, using Fourier–Motzkin elimination. An empty system is
// feasible.
func Feasible(cs []Constraint) bool {
	s := systems.Get().(*System)
	defer systems.Put(s)
	s.load(cs)
	return s.Feasible()
}

// SolveModel searches for an integer model of a conjunction of linear
// constraints using Fourier-Motzkin elimination with back-substitution:
// variables are eliminated one at a time (recording the intermediate
// systems), then assigned in reverse order from the rational bounds the
// remaining constraints imply, rounding into the integer interval.
//
// The procedure is complete for the bound-plus-sum constraint systems the
// treaty optimizer generates. For general systems integrality gaps can make
// it miss models; it never returns an incorrect one (the result is
// verified by evaluation before returning).
func SolveModel(cs []Constraint) (map[logic.Var]int64, bool) {
	s := systems.Get().(*System)
	defer systems.Put(s)
	s.load(cs)
	vals, ok := s.SolveModel()
	if !ok {
		return nil, false
	}
	model := make(map[logic.Var]int64, len(vals))
	for j, v := range s.vars {
		model[v] = vals[j]
	}
	return model, true
}

// Implies reports whether the conjunction of premises implies the
// conclusion constraint, i.e. premises && !conclusion is infeasible.
func Implies(premises []Constraint, conclusion Constraint) bool {
	return ImpliesAll(premises, []Constraint{conclusion})
}

// ImpliesAll reports whether premises imply every conclusion.
func ImpliesAll(premises, conclusions []Constraint) bool {
	s := systems.Get().(*System)
	defer systems.Put(s)
	s.load(premises, conclusions)
	for _, c := range conclusions {
		s.Add(c)
		if !s.ImpliesLast() {
			return false
		}
	}
	return true
}

// TightenBounds simplifies a conjunction by collapsing single-variable
// inequality constraints into the tightest bound per variable and
// direction, dropping the rest. Multi-variable constraints and equalities
// pass through unchanged, followed by each variable's lower then upper
// bound in table order. The result has the same integer solutions as the
// input and is dramatically smaller for the bound-heavy systems the treaty
// optimizer generates.
func TightenBounds(cs []Constraint) []Constraint {
	s := systems.Get().(*System)
	defer systems.Put(s)
	s.load(cs)
	s.TightenBounds()
	return s.Constraints()
}

// Feasible is the package-level Feasible on the system's rows.
func (s *System) Feasible() bool {
	n := s.Len()
	feasible, ok := s.forward()
	s.Truncate(n)
	if !ok {
		return FeasibleRat(s.Constraints())
	}
	return feasible
}

// SolveModel is the package-level SolveModel on the system's rows. The
// model is indexed like the variable table (a variable no row mentions is
// 0) and is valid until the system's next solve.
func (s *System) SolveModel() ([]int64, bool) {
	n := s.Len()
	s.vals = slices.Grow(s.vals[:0], len(s.vars))[:len(s.vars)]
	found, ok := s.forward()
	if found && ok {
		found, ok = s.back(n)
	}
	s.Truncate(n)
	if !ok {
		var model map[logic.Var]int64
		model, found = SolveModelRat(s.Constraints())
		for j, v := range s.vars {
			s.vals[j] = model[v]
		}
	}
	return s.vals, found
}

// ImpliesLast reports whether the rows before the last one imply it,
// i.e. whether they and its negation are infeasible, and removes it. The
// negation of an equality is disjunctive, so that case splits into the two
// strict ones.
func (s *System) ImpliesLast() bool {
	last := s.Len() - 1
	defer s.Truncate(last)
	op := s.ops[last]
	if op == EQ {
		// !(t = 0)  <=>  t < 0  ||  -t < 0
		s.ops[last] = LT
		if s.Feasible() {
			return false
		}
	}
	// !(t <= 0)  <=>  -t < 0;  !(t < 0)  <=>  -t <= 0
	for k, x := range s.Row(last) {
		s.rows[last*s.w+k] = -x
	}
	s.ops[last] = LT
	if op == LT {
		s.ops[last] = LE
	}
	return !s.Feasible()
}

// TightenBounds is the package-level TightenBounds, in place. A bound that
// does not fit int64 stays the row it was.
func (s *System) TightenBounds() {
	n := s.w - 1
	s.bnd = slices.Grow(s.bnd[:0], n)[:n]
	clear(s.bnd)
	kept := 0
	for r := 0; r < s.Len(); r++ {
		row := s.Row(r)
		if s.ops[r] != EQ && s.tighten(row, s.ops[r] == LT) {
			continue
		}
		copy(s.Row(kept), row)
		s.ops[kept] = s.ops[r]
		kept++
	}
	s.Truncate(kept)
	for j := range s.bnd {
		if b := s.bnd[j]; b.hasLo { // -v + lo <= 0
			row := s.AddRow(LE)
			row[j], row[n] = -1, b.lo
		}
		if b := s.bnd[j]; b.hasHi { // v - hi <= 0
			row := s.AddRow(LE)
			row[j], row[n] = 1, -b.hi
		}
	}
}

// tighten folds a single-variable inequality coeff*v + c (<|<=) 0 into
// the column's integer bound and reports whether it did.
//
//homeo:hotpath
func (s *System) tighten(row []int64, strict bool) bool {
	n := s.w - 1
	j := -1
	for k, x := range row[:n] {
		if x == 0 {
			continue
		}
		if j >= 0 {
			return false
		}
		j = k
	}
	if j < 0 {
		return false
	}
	// coeff*v <= -c - strict
	coeff := row[j]
	t, ok := neg64(row[n])
	if strict && ok {
		t, ok = add64(t, -1)
	}
	if !ok || (t == math.MinInt64 && coeff == -1) {
		return false
	}
	b := &s.bnd[j]
	if coeff > 0 {
		// v <= floor(t/coeff); the bound row negates it.
		if v := floorDiv(t, coeff); v == math.MinInt64 {
			return false
		} else if !b.hasHi || v < b.hi {
			b.hi, b.hasHi = v, true
		}
	} else if v := ceilDiv(t, coeff); !b.hasLo || v > b.lo {
		b.lo, b.hasLo = v, true
	}
	return true
}

// forward eliminates the columns in table order, appending each
// intermediate system after the previous one and recording where it
// starts. ok is false on overflow.
//
//homeo:hotpath
func (s *System) forward() (feasible, ok bool) {
	s.stages = s.stages[:0]
	cur := span{0, s.Len()}
	for j := 0; j < s.w-1; j++ {
		s.stages = append(s.stages, cur)
		next, st := s.eliminate(cur, j)
		if st != added {
			return false, st == infeasible
		}
		cur = next
	}
	for r := cur.from; r < cur.to; r++ {
		if !holds(s.ops[r], s.rows[r*s.w+s.w-1]) {
			return false, true
		}
	}
	return true, true
}

// status is the outcome of deriving one row.
type status int

const (
	added      status = iota // the row joined the system
	dropped                  // the row has no variables and holds
	infeasible               // the row has no variables and does not hold
	overflow                 // an entry left int64
)

// eliminate appends the system obtained from the rows of cur by removing
// column j and returns its span. Equalities involving the column are used
// as substitutions; otherwise the standard combination of upper and lower
// bounds applies. The status is added unless the elimination stopped at a
// contradiction among variable-free rows or at an overflow.
//
//homeo:hotpath
func (s *System) eliminate(cur span, j int) (span, status) {
	w := s.w
	pivot, mentioned := -1, false
	for r := cur.from; r < cur.to; r++ {
		if s.rows[r*w+j] == 0 {
			continue
		}
		mentioned = true
		if s.ops[r] == EQ {
			pivot = r
			break
		}
	}
	if !mentioned {
		return cur, added
	}
	start := s.Len()
	if pivot >= 0 {
		// The pivot reads v = -(rest + c)/pc; substituting it into a row
		// with coefficient oc and scaling by |pc| gives
		// |pc|*row - sign(pc)*oc*pivot.
		pc := s.rows[pivot*w+j]
		for r := cur.from; r < cur.to; r++ {
			if r == pivot {
				continue
			}
			oc := s.rows[r*w+j]
			if oc == 0 {
				s.copyRow(r)
				continue
			}
			a, b := pc, oc
			if pc > 0 {
				b = -oc
			} else {
				a = -pc
			}
			if a == math.MinInt64 || b == math.MinInt64 {
				return cur, overflow
			}
			if st := s.combine(r, pivot, a, b, s.ops[r]); st > dropped {
				return cur, st
			}
		}
		return span{start, s.Len()}, added
	}
	// No equality pivot: rows without the column pass through, then each
	// lower bound (negative coefficient) meets each upper bound.
	s.uppers = s.uppers[:0]
	for r := cur.from; r < cur.to; r++ {
		switch c := s.rows[r*w+j]; {
		case c == 0:
			s.copyRow(r)
		case c > 0:
			s.uppers = append(s.uppers, r)
		}
	}
	for lo := cur.from; lo < cur.to; lo++ {
		lc := s.rows[lo*w+j]
		if lc >= 0 {
			continue
		}
		if lc == math.MinInt64 {
			return cur, overflow
		}
		for _, up := range s.uppers {
			// up*(-lc) + lo*uc has coefficient uc*(-lc) + lc*uc = 0.
			op := LE
			if s.ops[lo] == LT || s.ops[up] == LT {
				op = LT
			}
			if st := s.combine(up, lo, -lc, s.rows[up*w+j], op); st > dropped {
				return cur, st
			}
		}
	}
	return span{start, s.Len()}, added
}

// copyRow appends a copy of row r.
//
//homeo:hotpath
func (s *System) copyRow(r int) {
	s.rows = append(s.rows, s.Row(r)...)
	s.ops = append(s.ops, s.ops[r])
}

// combine appends a*row(x) + b*row(y), divided by the gcd of its entries,
// unless the result has no variables.
//
//homeo:hotpath
func (s *System) combine(x, y int, a, b int64, op RelOp) status {
	w := s.w
	base := len(s.rows)
	s.rows = slices.Grow(s.rows, w)[:base+w]
	out, rx, ry := s.rows[base:], s.rows[x*w:(x+1)*w], s.rows[y*w:(y+1)*w]
	var g uint64
	vars := false
	for k := range out {
		p, ok1 := mul64(a, rx[k])
		q, ok2 := mul64(b, ry[k])
		v, ok3 := add64(p, q)
		if !ok1 || !ok2 || !ok3 {
			s.rows = s.rows[:base]
			return overflow
		}
		out[k] = v
		if v != 0 {
			vars = vars || k < w-1
			if g != 1 {
				g = gcd(g, abs64(v))
			}
		}
	}
	if !vars {
		s.rows = s.rows[:base]
		if holds(op, out[w-1]) {
			return dropped
		}
		return infeasible
	}
	if g > math.MaxInt64 {
		s.rows = s.rows[:base]
		return overflow
	}
	if g > 1 {
		for k := range out {
			out[k] /= int64(g)
		}
	}
	s.ops = append(s.ops, op)
	return added
}

// back assigns the columns in reverse elimination order, each from the
// bounds its stage implies under the values already assigned, then checks
// the model against the first n rows (the system as loaded). ok is false
// on overflow.
//
//homeo:hotpath
func (s *System) back(n int) (found, ok bool) {
	for j := s.w - 2; j >= 0; j-- {
		v, st := s.pick(s.stages[j], j)
		if st != added {
			return false, st == infeasible
		}
		s.vals[j] = v
	}
	for r := 0; r < n; r++ {
		sum, ok := s.rest(r, -1)
		if !ok {
			return false, false
		}
		if !holds(s.ops[r], sum) {
			return false, true
		}
	}
	return true, true
}

// rest evaluates row r under the assigned values, leaving column skip out.
//
//homeo:hotpath
func (s *System) rest(r, skip int) (int64, bool) {
	row := s.rows[r*s.w : (r+1)*s.w]
	sum := row[s.w-1]
	for k := skip + 1; k < s.w-1; k++ {
		if row[k] == 0 {
			continue
		}
		p, ok1 := mul64(row[k], s.vals[k])
		t, ok2 := add64(sum, p)
		if !ok1 || !ok2 {
			return 0, false
		}
		sum = t
	}
	return sum, true
}

// pick computes the tightest rational bounds on column j implied by its
// stage once the later columns' values are substituted, and picks an
// integer inside them: the upper bound when there is one (treaty
// configurations want the largest allowed value; any in-range value is
// valid for correctness). The status is added, infeasible or overflow.
//
//homeo:hotpath
func (s *System) pick(stage span, j int) (int64, status) {
	var lo, hi frac
	hasLo, hasHi, loStrict, hiStrict := false, false, false, false
	for r := stage.from; r < stage.to; r++ {
		coeff := s.rows[r*s.w+j]
		if coeff == 0 {
			continue
		}
		// coeff*v + rest (op) 0  =>  v (op') -rest/coeff, denominator > 0.
		rest, ok := s.rest(r, j)
		if !ok {
			return 0, overflow
		}
		b := frac{rest, coeff}
		if coeff > 0 {
			b.num, ok = neg64(rest)
		} else {
			b.den, ok = neg64(coeff)
		}
		if !ok {
			return 0, overflow
		}
		switch op := s.ops[r]; {
		case op == EQ:
			if (hasLo && b.cmp(lo) < 0) || (hasHi && b.cmp(hi) > 0) {
				return 0, infeasible
			}
			lo, hi = b, b
			hasLo, hasHi, loStrict, hiStrict = true, true, false, false
		case coeff > 0: // v <= b
			if c := b.cmp(hi); !hasHi || c < 0 || (c == 0 && op == LT) {
				hi, hasHi, hiStrict = b, true, op == LT
			}
		default: // v >= b
			if c := b.cmp(lo); !hasLo || c > 0 || (c == 0 && op == LT) {
				lo, hasLo, loStrict = b, true, op == LT
			}
		}
	}
	loVal, hiVal := ceilDiv(lo.num, max(lo.den, 1)), floorDiv(hi.num, max(hi.den, 1))
	if hasLo && loStrict && lo.num%lo.den == 0 {
		if loVal == math.MaxInt64 {
			return 0, overflow
		}
		loVal++
	}
	if hasHi && hiStrict && hi.num%hi.den == 0 {
		if hiVal == math.MinInt64 {
			return 0, overflow
		}
		hiVal--
	}
	switch {
	case hasHi && hasLo && hiVal < loVal:
		return 0, infeasible
	case hasHi:
		return hiVal, added
	case hasLo:
		return loVal, added
	}
	return 0, added
}

// frac is the rational num/den with den > 0.
type frac struct{ num, den int64 }

// cmp compares two fractions exactly, by the 128-bit cross products.
//
//homeo:hotpath
func (a frac) cmp(b frac) int {
	// a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den
	sa, sb := sign(a.num), sign(b.num)
	if sa != sb || sa == 0 {
		return sa - sb
	}
	ahi, alo := bits.Mul64(abs64(a.num), uint64(b.den))
	bhi, blo := bits.Mul64(abs64(b.num), uint64(a.den))
	c := 0
	switch {
	case ahi != bhi:
		c = 1
		if ahi < bhi {
			c = -1
		}
	case alo != blo:
		c = 1
		if alo < blo {
			c = -1
		}
	}
	return c * sa
}

//homeo:hotpath
func holds(op RelOp, c int64) bool {
	switch op {
	case LE:
		return c <= 0
	case LT:
		return c < 0
	case EQ:
		return c == 0
	}
	return false
}

func sign(x int64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// abs64 is |x| as an unsigned word, exact at MinInt64.
func abs64(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func neg64(x int64) (int64, bool) { return -x, x != math.MinInt64 }

func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0
}

func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	if (a < 0) != (b < 0) {
		return -int64(lo), hi == 0 && lo <= 1<<63
	}
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}
