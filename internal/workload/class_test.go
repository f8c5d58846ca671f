package workload_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/homeostasis"
	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/treaty"
	"repro/internal/workload"
)

const orderSrc = `
transaction Order() {
	v := read(q);
	if (v > 1) then
		write(q = v - 1)
	else
		write(q = 99)
}`

const depositSrc = `
transaction Deposit(n) {
	v := read(acct);
	write(acct = v + n)
}`

const withdrawSrc = `
transaction Withdraw(n) {
	v := read(bal);
	if (v - n > 0) then
		write(bal = v - n)
	else
		skip
}`

// compileL compiles an L class as the first member of a family.
func compileL(src string, nSites int, bounds treaty.ParamBounds) (*workload.Class, error) {
	c, _, err := workload.NewArtifactCache().CompileL(src, nSites, bounds)
	return c, err
}

func TestCompileLClass(t *testing.T) {
	c, err := compileL(orderSrc, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Order" {
		t.Fatalf("name = %q", c.Name)
	}
	if pinned, why := c.Pinned(); pinned {
		t.Fatalf("Order pinned: %s", why)
	}
	if got := c.Footprint(); len(got) != 1 || got[0] != "q" {
		t.Fatalf("footprint = %v", got)
	}
	if c.TableString() == "" {
		t.Fatal("no symbolic table")
	}
}

// TestCompileLClassErrors: every rejected input is rejected the same way
// by a cold cache (the first member of a family) and by a warm one whose
// family the input would join — a hit rejects exactly what a miss does.
func TestCompileLClassErrors(t *testing.T) {
	type compile func(*workload.ArtifactCache) error
	l := func(src string, nSites int, bounds treaty.ParamBounds) compile {
		return func(ac *workload.ArtifactCache) error {
			_, _, err := ac.CompileL(src, nSites, bounds)
			return err
		}
	}
	// The L parser refuses a delta-named object, so that input is an AST.
	write := func(obj lang.ObjID) compile {
		return func(ac *workload.ArtifactCache) error {
			_, _, err := ac.Compile(&lang.Transaction{Name: "D", Body: lang.WriteCmd{Obj: obj, E: lang.IntLit{Value: 1}}}, 2, nil)
			return err
		}
	}
	for _, tc := range []struct {
		what      string
		bad, warm compile
	}{
		{"no-object class", l("transaction T() { skip }", 2, nil), l(depositSrc, 2, nil)},
		{"bound for unknown parameter", l(depositSrc, 2, treaty.ParamBounds{"zz": {0, 1}}), l(depositSrc, 2, nil)},
		{"empty bound", l(depositSrc, 2, treaty.ParamBounds{"n": {1, 0}}), l(depositSrc, 2, nil)},
		{"no sites", l(depositSrc, 0, nil), l(depositSrc, 2, nil)},
		{"two-transaction source", l(depositSrc+orderSrc, 2, nil), l(depositSrc, 2, nil)},
		{"delta-named object", write(lang.DeltaObj("x", 1)), write("y")},
	} {
		coldErr := tc.bad(workload.NewArtifactCache())
		if coldErr == nil {
			t.Errorf("%s accepted by a cold cache", tc.what)
			continue
		}
		warm := workload.NewArtifactCache()
		if err := tc.warm(warm); err != nil {
			t.Fatalf("%s: warming the cache: %v", tc.what, err)
		}
		if warmErr := tc.bad(warm); warmErr == nil || warmErr.Error() != coldErr.Error() {
			t.Errorf("%s: warm cache says %v, cold cache %v", tc.what, warmErr, coldErr)
		}
	}
}

func TestCompileSQLClass(t *testing.T) {
	c, _, err := workload.NewArtifactCache().CompileSQL("AddStock", `
CREATE TABLE inv (item, qty) SIZE 4
UPDATE inv SET qty = qty + @d WHERE item = @k
SELECT SUM(qty) FROM inv WHERE item = @k
`, 2, treaty.ParamBounds{"d": {1, 3}, "k": {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Params) != 2 || c.Params[0] != "d" || c.Params[1] != "k" {
		t.Fatalf("params = %v", c.Params)
	}
	if c.Schema["inv"] == nil {
		t.Fatal("schema not carried")
	}
	if len(c.Footprint()) != 8 {
		t.Fatalf("footprint = %v, want the 8 inv cells", c.Footprint())
	}
}

// registerLive registers a class on a running system the way the public
// API does: compile, add to the registry, install units.
func register(t *testing.T, sys *homeostasis.System, reg *workload.Registry, src string, bounds treaty.ParamBounds, initial lang.Database) *workload.Class {
	t.Helper()
	c, err := compileL(src, sys.Opts.Topo.NSites(), bounds)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(c, initial); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddUnits(initial); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRegisteredClassOnSim registers classes never seen at construction
// time on a simulated 2-site cluster, executes them, and verifies serial
// replay equivalence — the core acceptance path of the dynamic
// registration design.
func TestRegisteredClassOnSim(t *testing.T) {
	for _, mode := range []homeostasis.Mode{homeostasis.ModeHomeo, homeostasis.ModeOpt, homeostasis.ModeTwoPC} {
		t.Run(mode.String(), func(t *testing.T) {
			reg, err := workload.NewRegistry(nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			e := sim.NewEngine(1)
			sys, err := homeostasis.New(e, reg, homeostasis.Options{
				Mode:      mode,
				Topo:      cluster.Uniform(2, 100*sim.Millisecond),
				EnableLog: true,
				Seed:      7,
			})
			if err != nil {
				t.Fatal(err)
			}

			dep := register(t, sys, reg, depositSrc, nil, lang.Database{"acct": 10})
			wd := register(t, sys, reg, withdrawSrc, treaty.ParamBounds{"n": {1, 5}}, nil)
			// Withdraw starts at zero balance; deposit into it first.
			dep2 := register(t, sys, reg,
				strings.NewReplacer("acct", "bal", "Deposit", "Fund").Replace(depositSrc),
				nil, lang.Database{"bal": 50})

			rng := rand.New(rand.NewSource(3))
			var execErr error
			for i := 0; i < 200; i++ {
				site := i % 2
				var req workload.Request
				switch i % 3 {
				case 0:
					req, err = reg.Request(dep, []int64{int64(rng.Intn(7) - 3)})
				case 1:
					req, err = reg.Request(wd, []int64{int64(1 + rng.Intn(5))})
				case 2:
					req, err = reg.Request(dep2, []int64{int64(rng.Intn(4))})
				}
				if err != nil {
					t.Fatal(err)
				}
				e.Spawn(i, func(p rt.Proc) {
					if _, err := sys.ExecRequest(p, site, req); err != nil && execErr == nil {
						execErr = err
					}
				})
				e.Run()
			}
			if execErr != nil {
				t.Fatal(execErr)
			}
			if err := sys.CheckReplayEquivalence(); err != nil {
				t.Fatal(err)
			}
			if got := len(sys.CommitLog); got != 200 {
				t.Fatalf("committed %d of 200", got)
			}
		})
	}
}

// TestRegisteredSQLClassOnSim drives the full SQL path — sqlfront →
// lang → symtab → treaty generation → execution — for a client-registered
// class, checking SELECT results and replay equivalence.
func TestRegisteredSQLClassOnSim(t *testing.T) {
	reg, err := workload.NewRegistry(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(1)
	sys, err := homeostasis.New(e, reg, homeostasis.Options{
		Mode:      homeostasis.ModeHomeo,
		Topo:      cluster.Uniform(2, 100*sim.Millisecond),
		EnableLog: true,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := workload.NewArtifactCache().CompileSQL("Restock", `
CREATE TABLE inv (item, qty) SIZE 2
UPDATE inv SET qty = qty + @d WHERE item = @k
SELECT SUM(qty) FROM inv WHERE item = @k
`, 2, treaty.ParamBounds{"d": {1, 3}, "k": {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	initial := lang.Database{}
	if err := sqlLoad(initial, c, 0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := sqlLoad(initial, c, 1, 2, 20); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(c, initial); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddUnits(initial); err != nil {
		t.Fatal(err)
	}

	want := map[int64]int64{1: 10, 2: 20}
	var execErr error
	for i := 0; i < 60; i++ {
		site := i % 2
		k := int64(1 + i%2)
		d := int64(1 + i%3)
		req, err := reg.Request(c, []int64{d, k})
		if err != nil {
			t.Fatal(err)
		}
		want[k] += d
		wantSum := want[k]
		e.Spawn(i, func(p rt.Proc) {
			res, err := sys.ExecRequest(p, site, req)
			if err != nil && execErr == nil {
				execErr = err
				return
			}
			if len(res.Log) != 1 || res.Log[0] != wantSum {
				t.Errorf("txn %d: SELECT log = %v, want [%d]", i, res.Log, wantSum)
			}
		})
		e.Run()
	}
	if execErr != nil {
		t.Fatal(execErr)
	}
	if err := sys.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
}

// sqlLoad loads a row into the class's table via the carried schema.
func sqlLoad(db lang.Database, c *workload.Class, slot int64, values ...int64) error {
	return sqlfrontLoad(db, c, "inv", slot, values...)
}

func sqlfrontLoad(db lang.Database, c *workload.Class, table string, slot int64, values ...int64) error {
	tbl := c.Schema[table]
	if tbl == nil {
		return errors.New("no such table")
	}
	for col, v := range values {
		db[lang.ArrayObj(table, slot*int64(len(tbl.Cols))+int64(col))] = v
	}
	return nil
}

// TestRegistryConflicts verifies base-object protection and duplicate
// names.
func TestRegistryConflicts(t *testing.T) {
	base, err := micro.New(micro.Config{Items: 10, Refill: 100, NSites: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := workload.NewRegistry(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reg.NumUnits() != 10 {
		t.Fatalf("base units = %d", reg.NumUnits())
	}
	// A class touching a base stock object must be rejected. Micro's
	// object names are not expressible in L source, so build the AST
	// directly.
	item := micro.ItemObj(3)
	ac := workload.NewArtifactCache()
	clash, _, err := ac.Compile(&lang.Transaction{
		Name: "Clash",
		Body: lang.SeqOf(
			lang.Assign{Var: "v", E: lang.Read{Obj: item}},
			lang.WriteCmd{Obj: item, E: lang.Bin{Op: lang.OpSub, L: lang.TempVar{Name: "v"}, R: lang.IntLit{Value: 1}}},
		),
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(clash, nil); err == nil {
		t.Fatal("base-object clash accepted")
	}
	dep, _, err := ac.CompileL(depositSrc, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(dep, nil); err != nil {
		t.Fatal(err)
	}
	dup, _, _ := ac.CompileL(depositSrc, 2, nil)
	if err := reg.Register(dup, nil); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if dep.Unit() != 10 {
		t.Fatalf("unit = %d, want 10", dep.Unit())
	}
}

// TestOverlappingClassesShareUnits: two classes over the same object must
// each check the other's treaty. The governing sets are maintained at
// registration: a rollback (Unregister) gives the earlier class back its
// old set, and a request built before a registration keeps the slice it
// was given.
func TestOverlappingClassesShareUnits(t *testing.T) {
	reg, err := workload.NewRegistry(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := compileL(depositSrc, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(a, lang.Database{"acct": 5}); err != nil {
		t.Fatal(err)
	}
	before, err := reg.Request(a, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(before.Units) != "[0]" {
		t.Fatalf("units A=%v before B, want [0]", before.Units)
	}
	spend := strings.NewReplacer("bal", "acct", "Withdraw", "Spend").Replace(withdrawSrc)
	b, err := compileL(spend, 2, treaty.ParamBounds{"n": {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(b, nil); err != nil {
		t.Fatal(err)
	}
	reqA, err := reg.Request(a, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	reqB, err := reg.Request(b, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(reqA.Units) != "[0 1]" || fmt.Sprint(reqB.Units) != "[0 1]" {
		t.Fatalf("units A=%v B=%v, want both to span both units", reqA.Units, reqB.Units)
	}
	if fmt.Sprint(before.Units) != "[0]" {
		t.Fatalf("a request built before B's registration now checks %v", before.Units)
	}

	// Roll B back: A governs itself alone again, and what B's registration
	// handed out stays as it was.
	if err := reg.Unregister(b); err != nil {
		t.Fatal(err)
	}
	after, err := reg.Request(a, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Units) != "[0]" {
		t.Fatalf("units A=%v after B's rollback, want [0]", after.Units)
	}
	if fmt.Sprint(reqA.Units) != "[0 1]" || fmt.Sprint(before.Units) != "[0]" {
		t.Fatalf("the rollback rewrote held sets: %v, %v", reqA.Units, before.Units)
	}
	if _, err := reg.Request(b, []int64{1}); err == nil {
		t.Fatal("a rolled-back class still builds requests")
	}
	// Registering again picks up where the rollback left off.
	if err := reg.Register(b, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Units(a); fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("units A=%v after B's re-registration, want [0 1]", got)
	}
}
