package treaty

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
)

// TestFeasibleMatchesSolve holds the closed form to Fourier–Motzkin: on
// random templates of two to four sites with inequality and equality
// clauses, whose constants sit near zero, near ±2^40, at either side of
// the narrow limit or at the edge of int64, feasible answers every
// selection (with and without a left-out position) as solve does, and
// minimizeConflict drops from an infeasible one what deletion by solve
// drops. The cases must
// cover feasible and infeasible selections the closed form answers,
// selections it answers with constants at the limit, and selections it
// leaves to solve.
func TestFeasibleMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var yes, no, edge, wide int
	for trial := 0; trial < 800; trial++ {
		nSites := 2 + rng.Intn(3)
		lim := math.MaxInt64 / (int64(nSites) + 2)
		scale := []int64{0, 1 << 40, -(1 << 40), lim, -lim, 1 << 62, math.MaxInt64 - 100, math.MinInt64 + 100}[trial%8]
		// At the limit, each site's share of a clause is one object with
		// a unit coefficient, so the constants are the values themselves.
		atLimit := scale == lim || scale == -lim
		draw := func(scale int64) int64 { return scale + rng.Int63n(41) - 20 }
		db := lang.Database{}
		nObjs := 2 + rng.Intn(4)
		if atLimit {
			nObjs = nSites
		}
		objs := make([]lang.ObjID, nObjs)
		for i := range objs {
			objs[i] = lang.ObjID(fmt.Sprintf("o%d", i))
			db[objs[i]] = draw(scale)
		}
		var g Global
		for c, nc := 0, 1+rng.Intn(3); c < nc; c++ {
			term := lia.NewTerm()
			for _, obj := range objs {
				if rng.Intn(3) > 0 {
					coeff := []int64{-1, 1, -2, 3}[rng.Intn(4)]
					if atLimit {
						coeff = 1 - 2*rng.Int63n(2)
					}
					term.AddVar(logic.Obj(obj), coeff)
				}
			}
			if term.IsConst() {
				term.AddVar(logic.Obj(objs[0]), 1)
			}
			op := lia.LE
			if rng.Intn(5) == 0 {
				op = lia.EQ
			}
			term.Const = -draw(scale)
			if atLimit {
				term.Const = -draw(0)
			}
			g.Constraints = append(g.Constraints, lia.Constraint{Term: term, Op: op})
		}
		tmpl, err := BuildTemplate(g, nSites, func(obj lang.ObjID) int { return int(obj[1]-'0') % nSites })
		if err != nil {
			t.Fatal(err)
		}
		var s solver
		s.heads = map[uint64]int32{}
		s.begin(tmpl, db)
		for i := 0; i < 12; i++ {
			d := lang.Database{}
			for _, obj := range objs {
				d[obj] = draw(scale)
			}
			s.visit(d)
		}
		for q := 0; q < 8; q++ {
			var idxs []int
			for i := 0; i < s.numSoft(); i++ {
				if rng.Intn(2) == 0 {
					idxs = append(idxs, i)
				}
			}
			skip := rng.Intn(len(idxs)+1) - 1
			_, want := s.solve(idxs, skip)
			if got := s.feasible(idxs, skip); got != want {
				t.Fatalf("trial %d query %d: feasible %v, solve %v (selection %v skip %d, template %v)", trial, q, got, want, idxs, skip, g)
			}
			// minimizeConflict, which deletes by feasible, drops what
			// deletion by solve drops.
			if !want {
				del := slices.Clone(idxs)
				for i := 0; i < len(del); {
					if _, ok := s.solve(del, i); !ok {
						del = slices.Delete(del, i, i+1)
					} else {
						i++
					}
				}
				if got := s.minimizeConflict(idxs); !slices.Equal(got, del) {
					t.Fatalf("trial %d query %d: minimizeConflict(%v) = %v, deletion by solve %v", trial, q, idxs, got, del)
				}
			}
			switch {
			case !s.narrow:
				wide++
			case atLimit:
				edge++
			case want:
				yes++
			default:
				no++
			}
		}
	}
	t.Logf("closed form: %d feasible, %d infeasible, %d at the limit; %d left to solve", yes, no, edge, wide)
	if yes == 0 || no == 0 || edge == 0 || wide == 0 {
		t.Fatal("the cases miss an outcome")
	}
}
