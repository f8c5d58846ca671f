package homeostasis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topk"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// familySources are class templates; members of one family differ in their
// names only, which is what makes them isomorphic to the artifact cache and
// to the deriver's memo.
var familySources = []string{
	"transaction W%[1]d(n) { v := read(b%[1]d); if (v - n > 0) then write(b%[1]d = v - n) else skip }",
	"transaction T%[1]d(n) { a := read(x%[1]d); c := read(y%[1]d); if (a + c - n > 10) then write(x%[1]d = a - n) else skip }",
	"transaction D%[1]d(n) { v := read(acct%[1]d); write(acct%[1]d = v + n) }",
}

// familyRegistry registers members classes of every family, compiled for
// nSites sites through one artifact cache.
func familyRegistry(t *testing.T, nSites, members int) *workload.Registry {
	t.Helper()
	reg, err := workload.NewRegistry(nil, nSites)
	if err != nil {
		t.Fatal(err)
	}
	ac := workload.NewArtifactCache()
	for _, src := range familySources {
		for i := 0; i < members; i++ {
			c, _, err := ac.CompileL(fmt.Sprintf(src, i), nSites, treaty.ParamBounds{"n": {1, 5}})
			if err != nil {
				t.Fatal(err)
			}
			initial := lang.Database{}
			for _, obj := range c.Footprint() {
				initial[obj] = 40
			}
			if err := reg.Register(c, initial); err != nil {
				t.Fatal(err)
			}
		}
	}
	return reg
}

// TestMemoMatchesScratch: whatever the memo serves a unit — the
// configuration of the first unit of its isomorphism class and that unit's
// locals under this unit's names — is what a template built from scratch on
// the unit's own global treaty instantiates under that configuration, site
// by site. Randomised over class families, folded values (few enough that
// isomorphic units meet, some on the guard's boundary where the class
// pins), strategies, weight vectors in the shapes the engine supplies
// (quantized demand, the membership overlay with a site zeroed, the one-hot
// demand of a unit only one site burns) and widths before and after two
// joins.
func TestMemoMatchesScratch(t *testing.T) {
	const boot = 2
	reg := familyRegistry(t, boot, 4)
	for _, alloc := range []Alloc{AllocDefault, AllocEqualSplit, AllocAdaptive} {
		rng := rand.New(rand.NewSource(int64(alloc) + 5))
		d := newDeriver(reg, Options{Mode: ModeHomeo, Alloc: alloc, Topo: cluster.Uniform(boot, sim.Millisecond),
			Lookahead: 20, CostFactor: 3, Seed: 1}, lang.DeltaObj, &metrics.Collector{})
		units := make([]*unitState, reg.NumUnits())
		for id := range units {
			units[id] = &unitState{id: id, objects: reg.UnitObjects(id)}
		}
		hitsAt := map[int]int64{}
		for i := 0; i < 1500; i++ {
			width := boot + i/500
			u := units[rng.Intn(len(units))]
			folded := lang.Database{}
			for _, obj := range u.objects {
				folded[obj] = []int64{3, 20, 35, 50}[rng.Intn(4)]
			}
			var weights []int64
			switch shape := rng.Intn(4); shape {
			case 1, 2:
				weights = make([]int64, width)
				for k := range weights {
					weights[k] = rng.Int63n(9)
				}
				if shape == 2 {
					weights[rng.Intn(width)] = 0
				}
			case 3:
				weights = make([]int64, width)
				weights[rng.Intn(width)] = 1
			}
			hits := d.hits
			got, err := d.derive(derivation{u: u, folded: folded, width: width, weights: weights})
			if err != nil {
				t.Fatal(err)
			}
			hitsAt[width] += d.hits - hits

			g, err := reg.BuildGlobal(u.id, folded)
			if err != nil {
				t.Fatal(err)
			}
			if width > boot {
				widen(g, width)
			}
			tmpl, err := treaty.BuildTemplate(g, width, placement)
			if err != nil {
				t.Fatal(err)
			}
			if weights != nil || alloc != AllocDefault {
				if want := tmpl.AdaptiveConfig(folded, weights); !reflect.DeepEqual(u.lastCfg, want) {
					t.Fatalf("%v, step %d, unit %d at %v, width %d, weights %v:\nconfiguration %v\n     scratch %v",
						alloc, i, u.id, folded, width, weights, u.lastCfg, want)
				}
			}
			want, err := tmpl.LocalTreaties(u.lastCfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != width {
				t.Fatalf("%v, step %d: %d locals at width %d", alloc, i, len(got), width)
			}
			for k := range want {
				if !sameLocal(got[k], want[k]) {
					t.Fatalf("%v, step %d, unit %d at %v, width %d, weights %v, site %d:\n  served %s\n scratch %s",
						alloc, i, u.id, folded, width, weights, k, got[k], want[k])
				}
			}
		}
		for width := boot; width <= boot+2; width++ {
			if hitsAt[width] < 100 {
				t.Errorf("%v: the memo served only %d of 500 derivations at width %d", alloc, hitsAt[width], width)
			}
		}
		if d.solves < 100 {
			t.Errorf("%v: only %d derivations missed the memo", alloc, d.solves)
		}
	}
}

// TestMemoHitReordersTerms: two units whose objects play the same roles
// under names that sort in opposite orders — (pa, pb) and (qy, qx), the
// first of each pair the one written. A memo hit renames positionally over
// the key's canonical variable order, which is each constraint's ascending
// order under the unit's own names, so what it serves the second unit must
// be ascending under the second unit's names and equal to a scratch
// derivation. With a guard symmetric in the two objects the units do meet
// under one key (the rename is pa→qx, pb→qy, not role to role); with one
// that weighs the second object twice they must not, since no
// order-keeping rename exists.
func TestMemoHitReordersTerms(t *testing.T) {
	for _, tc := range []struct {
		guard string
		hit   bool
	}{
		{"a + c - n > 10", true},
		{"a + c + c - n > 10", false},
	} {
		reg, err := workload.NewRegistry(nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		ac := workload.NewArtifactCache()
		for _, names := range [][3]string{{"P", "pa", "pb"}, {"Q", "qy", "qx"}} {
			src := fmt.Sprintf("transaction %[1]s(n) { a := read(%[2]s); c := read(%[3]s); if (%[4]s) then write(%[2]s = a - n) else skip }",
				names[0], names[1], names[2], tc.guard)
			c, _, err := ac.CompileL(src, 2, treaty.ParamBounds{"n": {1, 5}})
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Register(c, lang.Database{lang.ObjID(names[1]): 40, lang.ObjID(names[2]): 40}); err != nil {
				t.Fatal(err)
			}
		}
		d := newDeriver(reg, Options{Mode: ModeHomeo, Alloc: AllocEqualSplit, Topo: cluster.Uniform(2, sim.Millisecond),
			Seed: 1}, lang.DeltaObj, &metrics.Collector{})
		// Equal keys need equal folded values position by position in
		// ascending name order: pa↔qx, pb↔qy.
		for unit, folded := range []lang.Database{{"pa": 20, "pb": 35}, {"qx": 20, "qy": 35}} {
			u := &unitState{id: unit, objects: reg.UnitObjects(unit)}
			hits := d.hits
			got, err := d.derive(derivation{u: u, folded: folded, width: 2})
			if err != nil {
				t.Fatal(err)
			}
			if hit := d.hits > hits; hit != (unit == 1 && tc.hit) {
				t.Errorf("%q, unit %d: served by the memo: %v", tc.guard, unit, hit)
			}
			want := scratchLocals(t, reg, u, folded, 2)
			for k := range want {
				if !sameLocal(got[k], want[k]) {
					t.Errorf("%q, unit %d, site %d:\n  served %s\n scratch %s", tc.guard, unit, k, got[k], want[k])
				}
				if _, err := treaty.Compile(got[k]); err != nil {
					t.Errorf("%q, unit %d, site %d: %v", tc.guard, unit, k, err)
				}
			}
		}
	}
}

// TestMemoHitAllocations: a hit at two sites allocates the locals, their
// constraints and their terms — one slice each — and nothing else.
func TestMemoHitAllocations(t *testing.T) {
	reg := familyRegistry(t, 2, 2)
	d := newDeriver(reg, Options{Mode: ModeHomeo, Alloc: AllocEqualSplit, Topo: cluster.Uniform(2, sim.Millisecond),
		Seed: 1}, lang.DeltaObj, &metrics.Collector{})
	// Family T: two objects, so a constraint has more than one term a site.
	const unit = 2
	u := &unitState{id: unit, objects: reg.UnitObjects(unit)}
	if len(u.objects) != 2 {
		t.Fatalf("unit %d has objects %v, want a two-object class", unit, u.objects)
	}
	r := derivation{u: u, folded: lang.Database{u.objects[0]: 20, u.objects[1]: 35}, width: 2}
	if _, err := d.derive(r); err != nil {
		t.Fatal(err)
	}
	hits := d.hits
	if n := testing.AllocsPerRun(100, func() { _, _ = d.derive(r) }); n > 3 {
		t.Errorf("a memo hit allocates %v times, want at most 3", n)
	}
	if d.hits == hits {
		t.Fatal("the derivations measured were not memo hits")
	}
}

// scratchLocals is what a template built from scratch on the unit's own
// global treaty instantiates under the configuration the unit's last
// derivation left.
func scratchLocals(t *testing.T, w workload.Workload, u *unitState, folded lang.Database, width int) []treaty.Local {
	t.Helper()
	g, err := w.BuildGlobal(u.id, folded)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := treaty.BuildTemplate(g, width, placement)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := tmpl.LocalTreaties(u.lastCfg)
	if err != nil {
		t.Fatal(err)
	}
	return locals
}

// sameLocal compares two local treaties constraint by constraint (an empty
// treaty is empty whether its slice is nil or not).
func sameLocal(a, b treaty.Local) bool {
	if a.Site != b.Site || len(a.Constraints) != len(b.Constraints) {
		return false
	}
	for j := range a.Constraints {
		if !reflect.DeepEqual(a.Constraints[j], b.Constraints[j]) {
			return false
		}
	}
	return true
}

// widenChecked passes every global treaty its workload derives through the
// two facts the widen stage stands on: a delta object carries its base
// object's coefficient in every constraint that mentions it, and widening
// to the width the treaty was analysed at changes nothing.
type widenChecked struct {
	workload.Workload
	t      *testing.T
	width  int
	checks int
}

func (w *widenChecked) BuildGlobal(unit int, folded lang.Database) (treaty.Global, error) {
	g, err := w.Workload.BuildGlobal(unit, folded)
	if err != nil {
		return g, err
	}
	w.checks++
	for _, c := range g.Constraints {
		for v, coeff := range c.Term.Coeffs {
			if base, _, ok := lang.IsDeltaObj(lang.ObjID(v.Name)); ok && c.Term.Coeffs[logic.Obj(base)] != coeff {
				w.t.Errorf("%s unit %d at %v: %s has coefficient %d, its base object %d, in %s",
					w.Name(), unit, folded, v.Name, coeff, c.Term.Coeffs[logic.Obj(base)], c)
			}
		}
	}
	wide := g.Rename(func(obj lang.ObjID) lang.ObjID { return obj })
	widen(wide, w.width)
	if !reflect.DeepEqual(wide, g) {
		w.t.Errorf("%s unit %d at %v: widening to the analysis width %d turns\n%s into\n%s",
			w.Name(), unit, folded, w.width, g, wide)
	}
	return g, nil
}

// TestWidenIsIdentityAtAnalysisWidth runs the micro, TPC-C, top-k and
// registry workloads at two and three sites and checks every global treaty
// derived on the way, at boot and in every round.
func TestWidenIsIdentityAtAnalysisWidth(t *testing.T) {
	for _, nSites := range []int{2, 3} {
		tk, err := topk.New(topk.Config{NSites: nSites, MaxValue: 5000, InitialTop1: 100, InitialTop2: 91})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []workload.Workload{
			microWorkload(t, 6, nSites, 15),
			tpccWorkload(t, nSites, 10),
			tk,
			familyRegistry(t, nSites, 2),
		} {
			cw := &widenChecked{Workload: w, t: t, width: nSites}
			opts := baseOpts(ModeHomeo, nSites)
			opts.Measure = sim.Second
			sys, _ := runSystem(t, cw, opts)
			if cw.checks <= w.NumUnits() || sys.Col.Synced == 0 {
				t.Errorf("%s at %d sites: %d globals checked over %d units, %d rounds: nothing beyond boot",
					w.Name(), nSites, cw.checks, w.NumUnits(), sys.Col.Synced)
			}
		}
	}
}

// TestWidenMatchesWiderAnalysis: a treaty analysed at two sites and widened
// to four is the treaty the same workload analysed at four sites derives,
// constraint for constraint, on the same folded values — inside the guard
// and on its boundary, where the workloads pin.
func TestWidenMatchesWiderAnalysis(t *testing.T) {
	const boot, wide = 2, 4
	for _, at := range []func(nSites int) workload.Workload{
		func(nSites int) workload.Workload { return microWorkload(t, 3, nSites, 15) },
		func(nSites int) workload.Workload { return tpccWorkload(t, nSites, 10) },
		func(nSites int) workload.Workload { return familyRegistry(t, nSites, 2) },
	} {
		narrow, wider := at(boot), at(wide)
		for unit := 0; unit < narrow.NumUnits(); unit++ {
			for _, v := range []int64{0, 1, 3, 11, 12, 40} {
				folded := lang.Database{}
				for _, obj := range narrow.UnitObjects(unit) {
					folded[obj] = v
				}
				g, err := narrow.BuildGlobal(unit, folded)
				want, werr := wider.BuildGlobal(unit, folded)
				if err != nil || werr != nil {
					if (err == nil) != (werr == nil) {
						t.Fatalf("%s unit %d at %d: %v at %d sites, %v at %d", narrow.Name(), unit, v, err, boot, werr, wide)
					}
					continue
				}
				widen(g, wide)
				if !reflect.DeepEqual(g, want) {
					t.Fatalf("%s unit %d at %d:\nwidened  %s\nanalysed %s", narrow.Name(), unit, v, g, want)
				}
			}
		}
	}
}
