package micro

import (
	"math/rand"
	"testing"

	"repro/internal/lang"
	"repro/internal/treaty"
	"repro/internal/workload"
)

func mustNew(t *testing.T, cfg Config) *Workload {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSymbolicTableShape(t *testing.T) {
	w := mustNew(t, Config{Items: 4, Refill: 100, NSites: 2})
	if n := len(w.Table().Rows); n != 2 {
		t.Fatalf("rows = %d, want 2 (decrement / refill)\n%s", n, w.Table())
	}
}

// fakeView runs stored procedures directly against a plain database, for
// semantics comparison with the L++ source.
type fakeView struct {
	db  lang.Database
	log []int64
}

func (v *fakeView) Site() int   { return 0 }
func (v *fakeView) NSites() int { return 1 }
func (v *fakeView) ReadLogical(obj lang.ObjID) (int64, error) {
	return v.db.Get(obj), nil
}
func (v *fakeView) WriteLogical(obj lang.ObjID, val int64) error {
	v.db.Set(obj, val)
	return nil
}
func (v *fakeView) Print(x int64) { v.log = append(v.log, x) }

// TestStoredProcedureMatchesSource: the compiled Go stored procedure must
// behave exactly like the L++ transaction it was derived from.
func TestStoredProcedureMatchesSource(t *testing.T) {
	w := mustNew(t, Config{Items: 1, Refill: 17, NSites: 2})
	src, err := lang.ParseTransaction(Source(17))
	if err != nil {
		t.Fatal(err)
	}
	for qty := int64(-3); qty <= 20; qty++ {
		// L++ semantics on the canonical object.
		res, err := lang.Eval(src, lang.Database{canonObj: qty})
		if err != nil {
			t.Fatal(err)
		}
		// Stored procedure on the concrete object.
		view := &fakeView{db: lang.Database{ItemObj(0): qty}}
		req := w.MakeRequest([]int{0})
		if err := req.Exec(view, req.Args); err != nil {
			t.Fatal(err)
		}
		if got, want := view.db.Get(ItemObj(0)), res.DB.Get(canonObj); got != want {
			t.Fatalf("qty=%d: stored procedure wrote %d, L++ wrote %d", qty, got, want)
		}
		// Apply (the cleanup-phase form) must agree too.
		applied := lang.Database{ItemObj(0): qty}
		req.Apply(applied, req.Args)
		if got := applied.Get(ItemObj(0)); got != res.DB.Get(canonObj) {
			t.Fatalf("qty=%d: Apply wrote %d, L++ wrote %d", qty, got, res.DB.Get(canonObj))
		}
	}
}

func TestBuildGlobalDecrementRegion(t *testing.T) {
	w := mustNew(t, Config{Items: 2, Refill: 100, NSites: 3})
	folded := lang.Database{ItemObj(1): 50}
	g, err := w.BuildGlobal(1, folded)
	if err != nil {
		t.Fatal(err)
	}
	// The treaty governs the logical value q + sum of deltas: it must hold
	// while logical > 1 and fail at logical <= 1.
	obj := ItemObj(1)
	mk := func(base, d0, d1, d2 int64) lang.Database {
		return lang.Database{
			obj:                   base,
			lang.DeltaObj(obj, 0): d0,
			lang.DeltaObj(obj, 1): d1,
			lang.DeltaObj(obj, 2): d2,
		}
	}
	if !g.Holds(mk(50, 0, 0, 0)) {
		t.Fatal("treaty should hold at q=50")
	}
	if !g.Holds(mk(50, -20, -18, -10)) { // logical 2
		t.Fatal("treaty should hold at logical 2")
	}
	if g.Holds(mk(50, -20, -19, -10)) { // logical 1
		t.Fatal("treaty should fail at logical 1")
	}
}

func TestBuildGlobalRefillRegion(t *testing.T) {
	w := mustNew(t, Config{Items: 2, Refill: 100, NSites: 2})
	// At logical quantity 1 the refill row matches; its guard is q <= 1.
	g, err := w.BuildGlobal(0, lang.Database{ItemObj(0): 1})
	if err != nil {
		t.Fatal(err)
	}
	obj := ItemObj(0)
	if !g.Holds(lang.Database{obj: 1}) {
		t.Fatal("refill-region treaty should hold at q=1")
	}
	if g.Holds(lang.Database{obj: 5}) {
		t.Fatal("refill-region treaty should fail at q=5")
	}
}

func TestTreatyPipelineEndToEnd(t *testing.T) {
	// Full per-unit pipeline: guard -> global -> template -> equal-split
	// config -> local treaties; decrements within the slack hold, beyond
	// it violate.
	const nSites = 2
	w := mustNew(t, Config{Items: 1, Refill: 10, NSites: nSites})
	folded := lang.Database{ItemObj(0): 10}
	g, err := w.BuildGlobal(0, folded)
	if err != nil {
		t.Fatal(err)
	}
	place := func(obj lang.ObjID) int {
		if _, site, ok := lang.IsDeltaObj(obj); ok {
			return site
		}
		return 0
	}
	tmpl, err := treaty.BuildTemplate(g, nSites, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.AdaptiveConfig(folded, nil)
	if err := tmpl.Validate(cfg, folded); err != nil {
		t.Fatal(err)
	}
	locals, _ := tmpl.LocalTreaties(cfg)
	check, err := treaty.Compile(locals[1])
	if err != nil {
		t.Fatal(err)
	}
	obj := ItemObj(0)
	// Slack = 10 - 2 = 8, split 4/4. Site 1's treaty is over its delta
	// only: 4 decrements fine, 5 violate.
	site1 := lang.Database{lang.DeltaObj(obj, 1): -4}
	if !check.Holds(site1) {
		t.Fatalf("4 decrements should satisfy site 1 treaty: %s", locals[1])
	}
	site1[lang.DeltaObj(obj, 1)] = -5
	if check.Holds(site1) {
		t.Fatalf("5 decrements should violate site 1 treaty: %s", locals[1])
	}
}

// sampleFuture collects copies of the databases a model visits.
func sampleFuture(m treaty.WorkloadModel, rng *rand.Rand, db lang.Database, l int) []lang.Database {
	var out []lang.Database
	m.SampleFuture(rng, db, l, func(d lang.Database) { out = append(out, d.Clone()) })
	return out
}

func TestModelSampleFuture(t *testing.T) {
	w := mustNew(t, Config{Items: 1, Refill: 100, NSites: 2})
	m := w.Model(0)
	rng := rand.New(rand.NewSource(1))
	futures := sampleFuture(m, rng, lang.Database{ItemObj(0): 100}, 30)
	if len(futures) != 30 {
		t.Fatalf("len = %d, want 30", len(futures))
	}
	// Each step decrements the logical value by one (no refill in range).
	for i, db := range futures {
		logical := lang.LogicalValue(db, ItemObj(0), 2)
		if logical != int64(100-i-1) {
			t.Fatalf("step %d: logical = %d, want %d", i, logical, 100-i-1)
		}
	}
}

func TestModelRefillInFuture(t *testing.T) {
	w := mustNew(t, Config{Items: 1, Refill: 50, NSites: 2})
	m := w.Model(0)
	rng := rand.New(rand.NewSource(1))
	futures := sampleFuture(m, rng, lang.Database{ItemObj(0): 3}, 5)
	// Steps: 3 -> 2 -> 1 -> refill(49) -> 48 (the transaction decrements
	// whenever the value it reads is > 1, so it reaches 1 before
	// refilling).
	logical := func(db lang.Database) int64 { return lang.LogicalValue(db, ItemObj(0), 2) }
	want := []int64{2, 1, 49, 48, 47}
	for i, wv := range want {
		if got := logical(futures[i]); got != wv {
			t.Fatalf("step %d: logical = %d, want %d", i, got, wv)
		}
	}
}

func TestNextDistinctItems(t *testing.T) {
	w := mustNew(t, Config{Items: 10, Refill: 100, NSites: 2, ItemsPerTxn: 5})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		req := w.Next(rng, 0)
		if len(req.Units) != 5 {
			t.Fatalf("units = %d, want 5", len(req.Units))
		}
		seen := map[int]bool{}
		for _, u := range req.Units {
			if seen[u] {
				t.Fatalf("duplicate item in request: %v", req.Units)
			}
			seen[u] = true
		}
	}
}

func TestInitialDB(t *testing.T) {
	w := mustNew(t, Config{Items: 7, Refill: 42, NSites: 2})
	db := w.InitialDB()
	if len(db) != 7 {
		t.Fatalf("items = %d", len(db))
	}
	for i := 0; i < 7; i++ {
		if db.Get(ItemObj(i)) != 42 {
			t.Fatalf("item %d qty = %d, want 42", i, db.Get(ItemObj(i)))
		}
	}
}

var _ workload.Workload = (*Workload)(nil)

// TestHotSiteRotationDrift: with drift enabled, each site's draws
// concentrate in its current hot window, and the window moves when the
// rotor advances an epoch.
func TestHotSiteRotationDrift(t *testing.T) {
	w, err := New(Config{Items: 100, Refill: 100, NSites: 2,
		HotFrac: 0.9, HotWindow: 10, RotateEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	inWindow := func(item, start, width int) bool {
		for k := 0; k < width; k++ {
			if item == (start+k)%100 {
				return true
			}
		}
		return false
	}
	// Epoch 0: site 0's window is items [0,10), site 1's is [50,60).
	hot0, hot1 := 0, 0
	for i := 0; i < 500; i++ {
		r0 := w.Next(rng, 0)
		if inWindow(int(r0.Args[0]), 0, 10) {
			hot0++
		}
		r1 := w.Next(rng, 1)
		if inWindow(int(r1.Args[0]), 50, 10) {
			hot1++
		}
	}
	// 90% target; allow sampling slop (the uniform 10% also lands in the
	// window 10% of the time, pushing the expectation to ~91%).
	if hot0 < 400 || hot1 < 400 {
		t.Fatalf("hot-window hits = %d/%d of 500 each, want >= 400", hot0, hot1)
	}
	// The 1000 draws above advanced the rotor one epoch: site 0's window
	// is now [10,20).
	moved := 0
	for i := 0; i < 500; i++ {
		r := w.Next(rng, 0)
		if inWindow(int(r.Args[0]), 10, 10) {
			moved++
		}
		w.Next(rng, 1) // keep both sites drawing, as a real run would
	}
	if moved < 400 {
		t.Fatalf("after rotation only %d/500 draws in the moved window", moved)
	}
}

// TestNoDriftIsSeedDistribution: HotFrac 0 must leave the request
// stream untouched — same rng consumption, same draws as the seed.
func TestNoDriftIsSeedDistribution(t *testing.T) {
	a, err := New(Config{Items: 50, Refill: 100, NSites: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Items: 50, Refill: 100, NSites: 2, RotateEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		x, y := a.Next(r1, i%2), b.Next(r2, i%2)
		if x.Args[0] != y.Args[0] {
			t.Fatalf("draw %d differs without HotFrac: %d vs %d", i, x.Args[0], y.Args[0])
		}
	}
}
