package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/treaty"
)

// TestArtifactCacheMatchesScratch is the registration-cache soundness
// property: a class a warm cache serves from an isomorphic family (sharing
// its symbolic table and guard preprocessing) must be indistinguishable
// from the same source compiled as the first member of a family in a cold
// cache — footprint, write set, pin decision, per-site replica rewrites
// and, for randomized folded states, the derived global treaty,
// constraint for constraint. L sources go through CompileL, SQL ones
// through CompileSQL.
func TestArtifactCacheMatchesScratch(t *testing.T) {
	const nSites = 4
	rng := rand.New(rand.NewSource(5))
	ac := NewArtifactCache()
	for trial := 0; trial < 30; trial++ {
		// Isomorphic structure under fresh names every trial: only the
		// object and transaction names vary (bounds are part of the
		// family key, so they stay fixed).
		obj := fmt.Sprintf("acct_%c%d", 'a'+byte(trial%26), rng.Intn(1000))
		src := fmt.Sprintf(
			"transaction T%d(amt) { v := read(%s); if (v - amt > 0) then write(%s = v - amt) else skip }",
			trial, obj, obj)
		bounds := treaty.ParamBounds{"amt": {1, 5}}
		cached, hit, err := ac.CompileL(src, nSites, bounds)
		if err != nil {
			t.Fatalf("trial %d: cached compile: %v", trial, err)
		}
		if (trial > 0) != hit {
			t.Fatalf("trial %d: cache hit = %v, want %v", trial, hit, trial > 0)
		}
		scratch, hit, err := NewArtifactCache().CompileL(src, nSites, bounds)
		if err != nil || hit {
			t.Fatalf("trial %d: cold compile: hit %v, error %v", trial, hit, err)
		}
		sameClass(t, fmt.Sprintf("L trial %d", trial), cached, scratch, rng)
	}
	if len(ac.families) != 1 {
		t.Fatalf("families = %d, want 1 (every trial is isomorphic)", len(ac.families))
	}

	sql := NewArtifactCache()
	for trial := 0; trial < 10; trial++ {
		script := fmt.Sprintf(`
CREATE TABLE inv%d (item, qty) SIZE 2
UPDATE inv%d SET qty = qty - @d WHERE qty > @d
SELECT SUM(qty) FROM inv%d WHERE item = @k
`, trial, trial, trial)
		bounds := treaty.ParamBounds{"d": {1, 3}, "k": {1, 2}}
		name := fmt.Sprintf("Take%d", trial)
		cached, hit, err := sql.CompileSQL(name, script, nSites, bounds)
		if err != nil {
			t.Fatalf("SQL trial %d: cached compile: %v", trial, err)
		}
		if (trial > 0) != hit {
			t.Fatalf("SQL trial %d: cache hit = %v, want %v", trial, hit, trial > 0)
		}
		scratch, hit, err := NewArtifactCache().CompileSQL(name, script, nSites, bounds)
		if err != nil || hit {
			t.Fatalf("SQL trial %d: cold compile: hit %v, error %v", trial, hit, err)
		}
		if !reflect.DeepEqual(cached.Schema, scratch.Schema) {
			t.Fatalf("SQL trial %d: schema %v, cold %v", trial, cached.Schema, scratch.Schema)
		}
		if pinned, why := cached.Pinned(); pinned {
			t.Fatalf("SQL trial %d: pinned (%s); the comparison wants a derived treaty", trial, why)
		}
		sameClass(t, fmt.Sprintf("SQL trial %d", trial), cached, scratch, rng)
	}
	if len(sql.families) != 1 {
		t.Fatalf("SQL families = %d, want 1 (every trial is isomorphic)", len(sql.families))
	}
}

// sameClass requires a warm-cache member and a cold-cache first member of
// the same source to be indistinguishable.
func sameClass(t *testing.T, label string, cached, scratch *Class, rng *rand.Rand) {
	t.Helper()
	if got, want := fmt.Sprint(cached.Footprint()), fmt.Sprint(scratch.Footprint()); got != want {
		t.Fatalf("%s: footprint %s, cold %s", label, got, want)
	}
	cp, cr := cached.Pinned()
	sp, sr := scratch.Pinned()
	if cp != sp || cr != sr {
		t.Fatalf("%s: pinned (%v,%q), cold (%v,%q)", label, cp, cr, sp, sr)
	}
	// A member reads its representative's table, in the representative's
	// names: only the first member's compares as text.
	if cached.fromRep == nil && cached.TableString() != scratch.TableString() {
		t.Fatalf("%s: symbolic tables differ", label)
	}
	// Globals must agree at randomized folded states, including ones that
	// cross the guard boundary into the pin fallback.
	for probe := 0; probe < 8; probe++ {
		folded := lang.Database{}
		for _, obj := range cached.Footprint() {
			folded[obj] = rng.Int63n(40) - 5
			for k := 0; k < cached.nSites; k++ {
				folded[lang.DeltaObj(obj, k)] = 0
			}
		}
		cg := cached.buildGlobal(folded)
		sg := scratch.buildGlobal(folded)
		if cg.String() != sg.String() {
			t.Fatalf("%s probe %d (folded %v):\ncached: %s\ncold:   %s",
				label, probe, folded, cg.String(), sg.String())
		}
	}
	// The lazily built replica rewrites must execute identically.
	for k := 0; k < cached.nSites; k++ {
		if got, want := cached.rw(k).String(), scratch.rw(k).String(); got != want {
			t.Fatalf("%s site %d rewrite:\ncached: %s\ncold:   %s", label, k, got, want)
		}
	}
}

// TestArtifactCacheSplitsNonIsomorphic: structural or bounds differences
// must land in distinct families — sharing there would be unsound.
func TestArtifactCacheSplitsNonIsomorphic(t *testing.T) {
	ac := NewArtifactCache()
	srcs := []string{
		// The family everything else must NOT join.
		"transaction A(n) { v := read(x); if (v - n > 0) then write(x = v - n) else skip }",
		// Different guard shape (>= via > over v-n+1... actually distinct constant).
		"transaction B(n) { v := read(y); if (v - n > 1) then write(y = v - n) else skip }",
		// Two-object footprint.
		"transaction C(n) { v := read(p); if (v - n > 0) then write(q = v - n) else skip }",
		// No branch at all.
		"transaction D(n) { v := read(z); write(z = v - n) }",
	}
	for i, src := range srcs {
		if _, hit, err := ac.CompileL(src, 2, treaty.ParamBounds{"n": {1, 5}}); err != nil {
			t.Fatalf("class %d: %v", i, err)
		} else if hit {
			t.Fatalf("class %d: unexpectedly joined an existing family", i)
		}
	}
	// Same structure as A but different bounds: its own family too.
	if _, hit, err := ac.CompileL(
		"transaction E(n) { v := read(w); if (v - n > 0) then write(w = v - n) else skip }",
		2, treaty.ParamBounds{"n": {1, 9}}); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("bounds change unexpectedly joined the family")
	}
	if len(ac.families) != 5 {
		t.Fatalf("families = %d, want 5", len(ac.families))
	}
}

// TestFamilyMemberSizedOnce: a member's object lists — canonical order,
// write set, footprint — are cut from one allocation and sorted under the
// member's own names, whose order need not be the representative's; the
// representative arguments are the family's.
func TestFamilyMemberSizedOnce(t *testing.T) {
	ac := NewArtifactCache()
	src := func(name, a, b, c string) string {
		return fmt.Sprintf("transaction %s(n, m) { v := read(%s); w := read(%s); if (v - n > m) then { write(%s = v - n); write(%s = w + n) } else write(%s = m) }",
			name, a, b, a, c, b)
	}
	bounds := func(n, m string) treaty.ParamBounds { return treaty.ParamBounds{n: {2, 5}, m: {-1, 1}} }
	rep, hit, err := ac.CompileL(src("Rep", "a", "b", "c"), 2, bounds("n", "m"))
	if err != nil || hit {
		t.Fatalf("representative: hit %v, error %v", hit, err)
	}
	for _, names := range [][3]string{{"z", "y", "x"}, {"m1", "m3", "m2"}, {"q", "p", "r"}} {
		member, hit, err := ac.CompileL(src("M"+names[0], names[0], names[1], names[2]), 2, bounds("n", "m"))
		if err != nil || !hit {
			t.Fatalf("member %v: hit %v, error %v", names, hit, err)
		}
		scratch, _, err := NewArtifactCache().CompileL(src("M"+names[0], names[0], names[1], names[2]), 2, bounds("n", "m"))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(member.Footprint()), fmt.Sprint(scratch.Footprint()); got != want {
			t.Errorf("member %v: footprint %s, scratch %s", names, got, want)
		}
		if got, want := fmt.Sprint(member.canonObjs), fmt.Sprint([]lang.ObjID{lang.ObjID(names[0]), lang.ObjID(names[1]), lang.ObjID(names[2])}); got != want {
			t.Errorf("member %v: canonical objects %s, want %s", names, got, want)
		}
		if fmt.Sprint(member.repArgs) != fmt.Sprint(scratch.repArgs) || &member.repArgs[0] != &rep.repArgs[0] {
			t.Errorf("member %v: representative arguments %v, scratch %v, the family's %v", names, member.repArgs, scratch.repArgs, rep.repArgs)
		}
		// Appending to one list must not run into the next.
		if f := member.footprint; cap(f) != len(f) || cap(member.canonObjs) != len(member.canonObjs) {
			t.Errorf("member %v: lists share capacity: footprint %d/%d, canonical %d/%d", names, len(f), cap(f), len(member.canonObjs), cap(member.canonObjs))
		}
	}
}

// TestArtifactCacheConcurrentCompile: compilations from several goroutines
// share the cache's canonicalizer and key buffer under its lock; every one
// still gets the class a scratch compilation builds. Run under -race.
func TestArtifactCacheConcurrentCompile(t *testing.T) {
	ac := NewArtifactCache()
	bounds := treaty.ParamBounds{"n": {1, 3}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				shape := (g + i) % 4
				src := fmt.Sprintf("transaction G%dI%d(n) { v := read(o%d_%d); if (v - n > %d) then write(o%d_%d = v - n) else write(o%d_%d = v - n + %d) }",
					g, i, g, i, shape, g, i, g, i, 100+shape)
				c, _, err := ac.CompileL(src, 2, bounds)
				if err != nil {
					t.Errorf("goroutine %d class %d: %v", g, i, err)
					return
				}
				obj := lang.ObjID(fmt.Sprintf("o%d_%d", g, i))
				if fp := c.Footprint(); len(fp) != 1 || fp[0] != obj || len(c.canonObjs) != 1 || c.canonObjs[0] != obj {
					t.Errorf("goroutine %d class %d: footprint %v, canonical objects %v, want %s", g, i, fp, c.canonObjs, obj)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(ac.families); n != 4 {
		t.Fatalf("families = %d, want one per shape", n)
	}
}
