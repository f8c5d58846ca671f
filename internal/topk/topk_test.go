package topk

import (
	"math/rand"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/workload"
)

func mustNew(t *testing.T, nSites int) *Workload {
	t.Helper()
	w, err := New(Config{NSites: nSites, MaxValue: 200, InitialTop1: 100, InitialTop2: 91})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSymbolicTableShape(t *testing.T) {
	w := mustNew(t, 2)
	if n := len(w.Table().Rows); n != 3 {
		t.Fatalf("rows = %d, want 3 (new max / new second / silent)\n%s", n, w.Table())
	}
	g, err := w.SilentGuard()
	if err != nil {
		t.Fatal(err)
	}
	// The silent region is v <= top2 (Figure 2's cached-min check).
	for _, tc := range []struct {
		v    int64
		want bool
	}{{50, true}, {91, true}, {92, false}, {150, false}} {
		ok, err := logic.EvalFormula(g, logic.DBBinding(
			lang.Database{Top1: 100, Top2: 91}, map[string]int64{"v": tc.v}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.want {
			t.Errorf("silent guard at v=%d: %v, want %v", tc.v, ok, tc.want)
		}
	}
}

// fakeView for stored-procedure vs L++ equivalence.
type fakeView struct{ db lang.Database }

func (v *fakeView) Site() int   { return 0 }
func (v *fakeView) NSites() int { return 1 }
func (v *fakeView) ReadLogical(obj lang.ObjID) (int64, error) {
	return v.db.Get(obj), nil
}
func (v *fakeView) WriteLogical(obj lang.ObjID, val int64) error {
	v.db.Set(obj, val)
	return nil
}
func (v *fakeView) Print(int64) {}

func TestStoredProcedureMatchesSource(t *testing.T) {
	w := mustNew(t, 2)
	src, err := lang.ParseTransaction(InsertSource)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		t2 := int64(rng.Intn(100))
		t1 := t2 + int64(rng.Intn(50))
		v := int64(rng.Intn(200))
		want, err := lang.Eval(src, lang.Database{Top1: t1, Top2: t2}, v)
		if err != nil {
			t.Fatal(err)
		}
		req := w.InsertRequest(v)
		view := &fakeView{db: lang.Database{Top1: t1, Top2: t2}}
		if err := req.Exec(view, req.Args); err != nil {
			t.Fatal(err)
		}
		if !view.db.Equal(want.DB) {
			t.Fatalf("trial %d (t1=%d t2=%d v=%d): Exec %v, L++ %v",
				trial, t1, t2, v, view.db, want.DB)
		}
		applied := lang.Database{Top1: t1, Top2: t2}
		req.Apply(applied, req.Args)
		if !applied.Equal(want.DB) {
			t.Fatalf("trial %d: Apply %v, L++ %v", trial, applied, want.DB)
		}
	}
}

func TestPinTreaty(t *testing.T) {
	w := mustNew(t, 2)
	folded := lang.Database{Top1: 100, Top2: 91}
	g, err := w.BuildGlobal(0, folded)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Holds(folded) {
		t.Fatal("pin treaty must hold on the current list")
	}
	changed := folded.Clone()
	changed[Top2] = 95
	if g.Holds(changed) {
		t.Fatal("changing the list must violate the pin")
	}
	// Delta writes violate too (no merge function for maxima).
	viaDelta := folded.Clone()
	viaDelta[lang.DeltaObj(Top2, 1)] = 4
	if g.Holds(viaDelta) {
		t.Fatal("delta-encoded change must violate the pin")
	}
}

var _ workload.Workload = (*Workload)(nil)
