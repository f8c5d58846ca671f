package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/treaty"
)

// applyGen writes random L++ transactions over objects x0..x3, an array
// a(3) and parameters n, m: assignments, writes, prints and nested
// conditionals (one branch often skip), with array cells addressed by
// arbitrary expressions so out-of-range reads and writes occur. Now and
// then an expression names a temporary nothing assigned, so evaluation
// fails half-way — after writes, when they precede it.
type applyGen struct {
	rng   *rand.Rand
	temps int
}

func (g *applyGen) expr(depth int) string {
	switch g.rng.Intn(9) {
	case 0:
		return fmt.Sprint(g.rng.Intn(7) - 2)
	case 1:
		return []string{"n", "m"}[g.rng.Intn(2)]
	case 2:
		if g.temps > 0 {
			return fmt.Sprintf("t%d", g.rng.Intn(g.temps))
		}
		return "n"
	case 3, 4:
		return fmt.Sprintf("read(x%d)", g.rng.Intn(4))
	case 5:
		if depth > 0 {
			return fmt.Sprintf("a(%s)", g.expr(depth-1))
		}
		return "a(1)"
	case 6:
		if g.rng.Intn(25) == 0 {
			return "unassigned"
		}
		return "m"
	}
	if depth == 0 {
		return "1"
	}
	return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), []string{"+", "-"}[g.rng.Intn(2)], g.expr(depth-1))
}

func (g *applyGen) cmd(depth int) string {
	switch g.rng.Intn(7) {
	case 0:
		return "skip"
	case 1:
		g.temps++
		return fmt.Sprintf("t%d := %s", g.temps-1, g.expr(2))
	case 2:
		return fmt.Sprintf("write(x%d = %s)", g.rng.Intn(4), g.expr(2))
	case 3:
		return fmt.Sprintf("write(a(%s) = %s)", g.expr(1), g.expr(2))
	case 4:
		return fmt.Sprintf("print(%s)", g.expr(2))
	}
	if depth == 0 {
		return fmt.Sprintf("write(x%d = %s)", g.rng.Intn(4), g.expr(1))
	}
	// Temporaries assigned inside a branch may be unassigned after it.
	before := g.temps
	then := g.block(depth - 1)
	g.temps = before
	els := "skip"
	if g.rng.Intn(2) == 0 {
		els = g.block(depth - 1)
		g.temps = before
	}
	return fmt.Sprintf("if (%s %s %s) then %s else %s", g.expr(1), []string{"<", ">", "<=", "="}[g.rng.Intn(4)], g.expr(1), then, els)
}

func (g *applyGen) block(depth int) string {
	s := "{ " + g.cmd(depth)
	for i := g.rng.Intn(3); i > 0; i-- {
		s += "; " + g.cmd(depth)
	}
	return s + " }"
}

// TestApplyInPlaceMatchesEval is the differential test of the cleanup
// phase's in-place T': on randomized lowered transactions, arguments and
// databases, a class's Exec run through a FoldedView must leave exactly
// the database — the same entries, not merely the same values — and
// return the print log that lang.Eval computes on a copy, and must leave
// the database untouched where Eval fails. Environments and the view are
// pooled, so every class runs several times and the view serves them all.
func TestApplyInPlaceMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var view FoldedView
	failed, printed, unchanged := 0, 0, 0
	for trial := 0; trial < 100; trial++ {
		g := &applyGen{rng: rng}
		src := fmt.Sprintf("transaction T%d(n, m) { array a(3); write(x0 = read(x0) + 0); %s }", trial, strings.TrimSuffix(g.block(2)[2:], " }"))
		c, _, err := NewArtifactCache().CompileL(src, 2, treaty.ParamBounds{"n": {0, 3}})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		for run := 0; run < 8; run++ {
			db := lang.Database{}
			for k := 0; k < 4; k++ {
				if rng.Intn(3) > 0 {
					db[lang.ObjID(fmt.Sprintf("x%d", k))] = rng.Int63n(9) - 3
				}
			}
			for i := int64(0); i < 3; i++ {
				if rng.Intn(2) == 0 {
					db[lang.ArrayObj("a", i)] = rng.Int63n(5)
				}
			}
			args := []int64{rng.Int63n(4), rng.Int63n(6) - 2}
			want, wantLog := db.Clone(), []int64(nil)
			if res, err := lang.Eval(c.Lowered, db, args...); err == nil {
				want, wantLog = res.DB, res.Log
			} else {
				failed++
			}
			if len(wantLog) > 0 {
				printed++
			}
			if reflect.DeepEqual(want, db) {
				unchanged++
			}
			req, err := c.Invoke(nil, args)
			if err != nil {
				t.Fatal(err)
			}
			got := db.Clone()
			gotLog := view.Run(got, req)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("trial %d run %d args %v on %v:\nin place: %v log %v\nEval:     %v log %v\n%s",
					trial, run, args, db, got, gotLog, want, wantLog, src)
			}
		}
	}
	if failed == 0 || printed == 0 || unchanged == 0 {
		t.Fatalf("the generator missed a case: %d failed evaluations, %d with prints, %d leaving the database as it was",
			failed, printed, unchanged)
	}
	t.Logf("%d failed evaluations, %d with prints, %d leaving the database as it was", failed, printed, unchanged)
}
