package treaty

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
)

// The paper's running example (Section 4.2): psi is x + y >= 20, x on
// site 0, y on site 1, initial database x=10, y=13.
func exampleGlobal(t *testing.T) (Global, lang.Database, Placement) {
	t.Helper()
	psi := lang.Cmp{
		Op: lang.CmpGE,
		L:  lang.Bin{Op: lang.OpAdd, L: lang.Read{Obj: "x"}, R: lang.Read{Obj: "y"}},
		R:  lang.IntLit{Value: 20},
	}
	db := lang.Database{"x": 10, "y": 13}
	g, err := Preprocess(psi, db, nil, nil)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	place := func(obj lang.ObjID) int {
		if obj == "x" {
			return 0
		}
		return 1
	}
	return g, db, place
}

func TestPreprocessLinearGuard(t *testing.T) {
	g, db, _ := exampleGlobal(t)
	if len(g.Constraints) != 1 {
		t.Fatalf("constraints = %d, want 1", len(g.Constraints))
	}
	if !g.Holds(db) {
		t.Fatal("treaty must hold on initial database")
	}
	if g.Holds(lang.Database{"x": 5, "y": 5}) {
		t.Fatal("treaty should fail when x+y < 20")
	}
	if !g.Holds(lang.Database{"x": 20, "y": 0}) {
		t.Fatal("treaty should hold when x+y = 20")
	}
}

// TestGlobalHoldsOverflow: x + y - 10 <= 0 at x = y = 2^63 - 1 does not
// hold, though the sum wraps to a negative number.
func TestGlobalHoldsOverflow(t *testing.T) {
	term := lia.NewTerm()
	term.AddVar(logic.Obj("x"), 1)
	term.AddVar(logic.Obj("y"), 1)
	term.Const = -10
	g := Global{Constraints: []lia.Constraint{{Term: term, Op: lia.LE}}}
	if g.Holds(lang.Database{"x": math.MaxInt64, "y": math.MaxInt64}) {
		t.Fatal("x + y - 10 <= 0 holds at x = y = 2^63 - 1")
	}
	if !g.Holds(lang.Database{"x": math.MaxInt64, "y": math.MinInt64}) {
		t.Fatal("x + y - 10 <= 0 fails at x = 2^63 - 1, y = -2^63")
	}
}

func TestPreprocessStrictNormalization(t *testing.T) {
	// x < 10 over integers must become x <= 9.
	psi := lang.Cmp{Op: lang.CmpLT, L: lang.Read{Obj: "x"}, R: lang.IntLit{Value: 10}}
	g, err := Preprocess(psi, lang.Database{"x": 5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Constraints) != 1 || g.Constraints[0].Op != lia.LE {
		t.Fatalf("constraints = %v", g.Constraints)
	}
	if !g.Holds(lang.Database{"x": 9}) || g.Holds(lang.Database{"x": 10}) {
		t.Fatal("x<10 should normalize to x<=9")
	}
}

func TestPreprocessParamWorstCase(t *testing.T) {
	// Guard: stock - qty >= 0 with qty in [1,5]: treaty must be
	// stock >= 5 (worst case).
	psi := lang.Cmp{
		Op: lang.CmpGE,
		L:  lang.Bin{Op: lang.OpSub, L: lang.Read{Obj: "stock"}, R: lang.Param{Name: "qty"}},
		R:  lang.IntLit{Value: 0},
	}
	db := lang.Database{"stock": 50}
	g, err := Preprocess(psi, db, map[string]int64{"qty": 3}, ParamBounds{"qty": {1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Holds(lang.Database{"stock": 5}) {
		t.Fatal("stock=5 should satisfy worst-case treaty")
	}
	if g.Holds(lang.Database{"stock": 4}) {
		t.Fatal("stock=4 should violate worst-case treaty")
	}
}

func TestPreprocessNonLinearFallback(t *testing.T) {
	// x*y > 5 is nonlinear: preprocessing must fix x and y to current
	// values.
	psi := lang.Cmp{
		Op: lang.CmpGT,
		L:  lang.Bin{Op: lang.OpMul, L: lang.Read{Obj: "x"}, R: lang.Read{Obj: "y"}},
		R:  lang.IntLit{Value: 5},
	}
	db := lang.Database{"x": 3, "y": 4}
	g, err := Preprocess(psi, db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Holds(db) {
		t.Fatal("fixed treaty must hold on D")
	}
	if g.Holds(lang.Database{"x": 4, "y": 4}) {
		t.Fatal("fixed treaty must pin x to 3")
	}
}

func TestPreprocessDisjunctionFallback(t *testing.T) {
	psi := lang.Or{
		L: lang.Cmp{Op: lang.CmpGE, L: lang.Read{Obj: "x"}, R: lang.IntLit{Value: 10}},
		R: lang.Cmp{Op: lang.CmpLE, L: lang.Read{Obj: "x"}, R: lang.IntLit{Value: -10}},
	}
	db := lang.Database{"x": 15}
	g, err := Preprocess(psi, db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fallback pins x = 15, which implies the disjunction.
	if !g.Holds(db) || g.Holds(lang.Database{"x": 14}) {
		t.Fatal("disjunction fallback should pin x")
	}
}

func TestPreprocessRejectsFalseGuard(t *testing.T) {
	psi := lang.Cmp{Op: lang.CmpGE, L: lang.Read{Obj: "x"}, R: lang.IntLit{Value: 100}}
	if _, err := Preprocess(psi, lang.Database{"x": 1}, nil, nil); err == nil {
		t.Fatal("expected error when psi fails on D")
	}
}

// checkedLocal is a local treaty with its compiled check: Holds evaluates
// it, %s renders it.
type checkedLocal struct {
	Local
	check CompiledLocal
}

func (l checkedLocal) Holds(db lang.Database) bool { return l.check.Holds(db) }

// localTreaties instantiates and compiles every site's local treaty.
func localTreaties(t *testing.T, tmpl *Template, cfg Config) []checkedLocal {
	t.Helper()
	locals, err := tmpl.LocalTreaties(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]checkedLocal, len(locals))
	for k, l := range locals {
		c, err := Compile(l)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = checkedLocal{l, c}
	}
	return out
}

func TestDefaultConfigIsValid(t *testing.T) {
	g, db, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.DefaultConfig(db)
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Under the default, each site pins its local sum: x >= 10, y >= 13.
	locals := localTreaties(t, tmpl, cfg)
	if !locals[0].Holds(lang.Database{"x": 10}) || locals[0].Holds(lang.Database{"x": 9}) {
		t.Fatalf("site 0 default treaty should be x >= 10: %s", locals[0])
	}
	if !locals[1].Holds(lang.Database{"y": 13}) || locals[1].Holds(lang.Database{"y": 12}) {
		t.Fatalf("site 1 default treaty should be y >= 13: %s", locals[1])
	}
}

// TestLocalTreatiesImplyGlobalEmpirically: random databases satisfying all
// local treaties must satisfy the global treaty (H1, checked by sampling).
func TestLocalTreatiesImplyGlobalEmpirically(t *testing.T) {
	g, db, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.DefaultConfig(db)
	locals := localTreaties(t, tmpl, cfg)
	rng := rand.New(rand.NewSource(21))
	checked := 0
	for trial := 0; trial < 2000; trial++ {
		d := lang.Database{
			"x": int64(rng.Intn(61) - 20),
			"y": int64(rng.Intn(61) - 20),
		}
		all := true
		for _, l := range locals {
			if !l.Holds(d) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		checked++
		if !g.Holds(d) {
			t.Fatalf("H1 violated empirically at %v", d)
		}
	}
	if checked == 0 {
		t.Fatal("no sampled database satisfied the local treaties; test is vacuous")
	}
}

// TestValidateRejectsBadConfig: a configuration violating H1 must fail.
func TestValidateRejectsBadConfig(t *testing.T) {
	g, db, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.DefaultConfig(db)
	// Loosen both sites beyond the H1 budget: sum of configs drops below
	// (K-1)*n.
	for v := range cfg {
		cfg[v] -= 100
	}
	if err := tmpl.Validate(cfg, db); err == nil {
		t.Fatal("expected H1 violation")
	}
	// A config that violates H2 (local treaty fails on D).
	cfg2 := tmpl.DefaultConfig(db)
	for v := range cfg2 {
		cfg2[v] += 100 // tighter than current state allows
	}
	if err := tmpl.Validate(cfg2, db); err == nil {
		t.Fatal("expected H2 violation")
	}
}

// TestTheorem43Property: for random linear >= treaties over randomly
// placed objects and random databases satisfying them, the default
// configuration always validates. This is the paper's Theorem 4.3.
func TestTheorem43Property(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	prop := func() bool {
		nSites := 2 + rng.Intn(3)
		nObjs := 1 + rng.Intn(4)
		objs := make([]lang.ObjID, nObjs)
		db := lang.Database{}
		placeMap := make(map[lang.ObjID]int)
		for i := range objs {
			objs[i] = lang.ObjID(string(rune('a' + i)))
			db[objs[i]] = int64(rng.Intn(41) - 10)
			placeMap[objs[i]] = rng.Intn(nSites)
		}
		// Random clause: sum d_i x_i <= n chosen to hold on D; sometimes an
		// equality.
		term := lia.NewTerm()
		for _, o := range objs {
			term.AddVar(logic.Obj(o), int64(rng.Intn(5)-2))
		}
		val, _ := term.Eval(logic.DBBinding(db, nil, nil))
		op := lia.LE
		if rng.Intn(4) == 0 {
			op = lia.EQ
		}
		switch op {
		case lia.LE:
			term.Const -= val - int64(rng.Intn(5)) // slack >= 0
		case lia.EQ:
			term.Const -= val
		}
		g := Global{Constraints: []lia.Constraint{{Term: term, Op: op}}}
		if !g.Holds(db) {
			return true // skip malformed sample
		}
		tmpl, err := BuildTemplate(g, nSites, func(o lang.ObjID) int { return placeMap[o] })
		if err != nil {
			return false
		}
		cfg := tmpl.DefaultConfig(db)
		return tmpl.Validate(cfg, db) == nil
	}
	wrapped := func(uint8) bool { return prop() }
	if err := quick.Check(wrapped, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// scriptedModel replays fixed future database sequences, reproducing the
// Appendix C.2 worked example.
type scriptedModel struct {
	futures [][]lang.Database
	next    int
}

func (m *scriptedModel) SampleFuture(_ *rand.Rand, _ lang.Database, _ int, visit func(lang.Database)) {
	for _, d := range m.futures[m.next%len(m.futures)] {
		visit(d)
	}
	m.next++
}

// TestOptimizeAppendixC2 replays the paper's worked example: futures
// S1 = [T1;T1;T2], S2 = [T1;T1;T1], S3 = [T1;T2;T1] from (x,y) = (10,13).
// The optimal configuration satisfies the soft constraints from S1 and S3
// and gives more slack to site 0 (where the more frequent T1 writes).
func TestOptimizeAppendixC2(t *testing.T) {
	g, db, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	model := &scriptedModel{futures: [][]lang.Database{
		{{"x": 9, "y": 13}, {"x": 8, "y": 13}, {"x": 8, "y": 12}}, // S1
		{{"x": 9, "y": 13}, {"x": 8, "y": 13}, {"x": 7, "y": 13}}, // S2
		{{"x": 9, "y": 13}, {"x": 9, "y": 12}, {"x": 8, "y": 12}}, // S3
	}}
	cfg, stats := Optimize(tmpl, db, model, OptimizeOptions{
		Lookahead:  3,
		CostFactor: 3,
		Rng:        rand.New(rand.NewSource(1)),
	})
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatalf("optimized config invalid: %v", err)
	}
	if stats.UsedDefault {
		t.Fatal("optimizer fell back to default")
	}
	locals := localTreaties(t, tmpl, cfg)
	// The optimum must keep every database of S1 and S3 inside the local
	// treaties (9 soft constraints; at most 1-2 falsified from S2's tail).
	for _, d := range model.futures[0] {
		if !locals[0].Holds(d) || !locals[1].Holds(d) {
			t.Fatalf("optimized treaties reject S1 database %v\nlocals: %s | %s",
				d, locals[0], locals[1])
		}
	}
	for _, d := range model.futures[2] {
		if !locals[0].Holds(d) || !locals[1].Holds(d) {
			t.Fatalf("optimized treaties reject S3 database %v", d)
		}
	}
	// Site 0 must be able to absorb x down to 8 (i.e. x >= 8 allowed);
	// the paper's optimum corresponds to cy = 12, cx = 8.
	if !locals[0].Holds(lang.Database{"x": 8}) {
		t.Fatalf("site 0 treaty should allow x = 8: %s", locals[0])
	}
	if locals[0].Holds(lang.Database{"x": 7}) {
		// Allowing x = 7 would require rejecting y = 12, contradicting the
		// S1/S3 optimum; the exact paper optimum stops at 8.
		t.Fatalf("site 0 treaty too loose: %s", locals[0])
	}
	if !locals[1].Holds(lang.Database{"y": 12}) {
		t.Fatalf("site 1 treaty should allow y = 12: %s", locals[1])
	}
	// After deduplication the 9 sampled databases collapse to 5 distinct
	// soft constraints: (9,13), (8,13), (8,12), (7,13), (9,12). The
	// optimum satisfies all but (7,13).
	if stats.SoftTotal != 5 {
		t.Fatalf("deduplicated soft total = %d, want 5", stats.SoftTotal)
	}
	if stats.SoftSatisfied != 4 {
		t.Fatalf("satisfied %d/%d soft constraints, expected 4",
			stats.SoftSatisfied, stats.SoftTotal)
	}
}

// TestOptimizeBeatsDefault: on a skewed workload the optimized treaty
// satisfies strictly more sampled futures than the default pin-everything
// configuration.
func TestOptimizeBeatsDefault(t *testing.T) {
	g, db, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	// Futures that only ever decrement x.
	model := &scriptedModel{futures: [][]lang.Database{
		{{"x": 9, "y": 13}, {"x": 8, "y": 13}},
		{{"x": 9, "y": 13}, {"x": 8, "y": 13}},
	}}
	cfg, stats := Optimize(tmpl, db, model, OptimizeOptions{
		Lookahead: 2, CostFactor: 2, Rng: rand.New(rand.NewSource(1)),
	})
	if stats.SoftSatisfied != stats.SoftTotal {
		t.Fatalf("all soft constraints should be satisfiable: %d/%d",
			stats.SoftSatisfied, stats.SoftTotal)
	}
	locals := localTreaties(t, tmpl, cfg)
	if !locals[0].Holds(lang.Database{"x": 8}) {
		t.Fatalf("optimized treaty should allow x down to 8: %s", locals[0])
	}
	// Default config pins x >= 10: it would reject both futures.
	defCfg := tmpl.DefaultConfig(db)
	defLocals := localTreaties(t, tmpl, defCfg)
	if defLocals[0].Holds(lang.Database{"x": 9}) {
		t.Fatal("default treaty unexpectedly loose")
	}
}

// TestEqualityClausePinning: equality clauses force configurations and
// remain valid.
func TestEqualityClausePinning(t *testing.T) {
	// psi: x + y = 23 with D = (10, 13).
	psi := lang.Cmp{
		Op: lang.CmpEQ,
		L:  lang.Bin{Op: lang.OpAdd, L: lang.Read{Obj: "x"}, R: lang.Read{Obj: "y"}},
		R:  lang.IntLit{Value: 23},
	}
	db := lang.Database{"x": 10, "y": 13}
	g, err := Preprocess(psi, db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	place := func(obj lang.ObjID) int {
		if obj == "x" {
			return 0
		}
		return 1
	}
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.DefaultConfig(db)
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatalf("equality default config invalid: %v", err)
	}
	locals := localTreaties(t, tmpl, cfg)
	// Equality splits pin each side: x must stay 10, y must stay 13.
	if !locals[0].Holds(lang.Database{"x": 10}) || locals[0].Holds(lang.Database{"x": 11}) {
		t.Fatalf("site 0 equality treaty should pin x = 10: %s", locals[0])
	}
	if !locals[1].Holds(lang.Database{"y": 13}) || locals[1].Holds(lang.Database{"y": 12}) {
		t.Fatalf("site 1 equality treaty should pin y = 13: %s", locals[1])
	}
}

func TestBuildTemplateRejectsNonObjectVars(t *testing.T) {
	term := lia.NewTerm()
	term.AddVar(logic.Param("p"), 1)
	g := Global{Constraints: []lia.Constraint{{Term: term, Op: lia.LE}}}
	if _, err := BuildTemplate(g, 2, func(lang.ObjID) int { return 0 }); err == nil {
		t.Fatal("expected rejection of parameter variable in treaty")
	}
}

// TestConfigVarsDeterministic: the template's configuration variables are
// in logic.SortVars order, the table order the optimizer's systems need.
func TestConfigVarsDeterministic(t *testing.T) {
	g, _, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	vars := tmpl.configVars
	if len(vars) != 2 {
		t.Fatalf("config vars = %d, want 2", len(vars))
	}
	if !slices.IsSortedFunc(vars, logic.CompareVars) {
		t.Fatalf("config vars %v are not in table order", vars)
	}
}

// TestEqualSplitConfig: the OPT baseline configuration is valid and splits
// slack evenly (Section 6.1's hand-crafted demarcation variant).
func TestEqualSplitConfig(t *testing.T) {
	g, db, place := exampleGlobal(t) // x+y >= 20 at (10, 13): slack 3
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.AdaptiveConfig(db, nil)
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatalf("equal-split config invalid: %v", err)
	}
	locals := localTreaties(t, tmpl, cfg)
	// Slack 3 split 2/1: site 0 may drop x by 2 (to 8), site 1 by 1.
	if !locals[0].Holds(lang.Database{"x": 8}) || locals[0].Holds(lang.Database{"x": 7}) {
		t.Fatalf("site 0 equal-split treaty should be x >= 8: %s", locals[0])
	}
	if !locals[1].Holds(lang.Database{"y": 12}) || locals[1].Holds(lang.Database{"y": 11}) {
		t.Fatalf("site 1 equal-split treaty should be y >= 12: %s", locals[1])
	}
}

// TestEqualSplitNoSlack: at the boundary the split pins every site.
func TestEqualSplitNoSlack(t *testing.T) {
	g, _, place := exampleGlobal(t)
	db := lang.Database{"x": 10, "y": 10} // x+y = 20 exactly
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.AdaptiveConfig(db, nil)
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatalf("boundary config invalid: %v", err)
	}
	locals := localTreaties(t, tmpl, cfg)
	if locals[0].Holds(lang.Database{"x": 9}) || locals[1].Holds(lang.Database{"y": 9}) {
		t.Fatal("no-slack split must pin both sites")
	}
}

// TestOptimizeGreedyFallback: with the theory-round budget forced to one,
// an over-constrained instance must still terminate with a valid
// configuration via the greedy path.
func TestOptimizeGreedyFallback(t *testing.T) {
	g, db, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	// Futures demand far more slack than exists: every theory round
	// conflicts.
	model := &scriptedModel{futures: [][]lang.Database{
		{{"x": 2, "y": 13}, {"x": 1, "y": 13}},
		{{"x": 10, "y": 3}, {"x": 10, "y": 2}},
		{{"x": 0, "y": 0}},
	}}
	cfg, stats := Optimize(tmpl, db, model, OptimizeOptions{
		Lookahead:       2,
		CostFactor:      3,
		Rng:             rand.New(rand.NewSource(1)),
		MaxTheoryRounds: 1,
	})
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatalf("fallback config invalid: %v", err)
	}
	if !stats.GreedyFallback {
		t.Fatal("expected the greedy fallback to trigger")
	}
	// Every sampled future here is individually infeasible against the H1
	// budget, so the optimum keeps none of them; validity is what matters.
	if stats.SoftSatisfied != 0 {
		t.Fatalf("satisfied %d softs, expected 0 for this instance", stats.SoftSatisfied)
	}
}

// TestOptimizeNoFutures: an empty model degrades to the Theorem 4.3
// default.
func TestOptimizeNoFutures(t *testing.T) {
	g, db, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	model := &scriptedModel{futures: [][]lang.Database{{}}}
	cfg, stats := Optimize(tmpl, db, model, OptimizeOptions{
		Lookahead: 5, CostFactor: 2, Rng: rand.New(rand.NewSource(1)),
	})
	if !stats.UsedDefault {
		t.Fatal("expected default fallback with no soft constraints")
	}
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestRelaxIntoSlackDistributesBudget: after relaxation the H1 budget is
// fully consumed (sum of configs equals (K-1)*n for LE clauses).
func TestRelaxIntoSlackDistributesBudget(t *testing.T) {
	g, db, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.DefaultConfig(db) // sum = (K-1)*n + slack
	tmpl.relaxIntoSlack(cfg)
	for _, tc := range tmpl.Clauses {
		n := -tc.Global.Term.Const
		sum := int64(0)
		for _, sc := range tc.Sites {
			sum += cfg[sc.Config]
		}
		if sum != n { // (K-1)*n with K=2
			t.Fatalf("post-relax sum = %d, want %d", sum, n)
		}
	}
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatalf("relaxed config invalid: %v", err)
	}
}

// TestAdaptiveConfigProportional: with demand weights 3:1 the slack goes
// mostly to the hot site, and the configuration stays valid.
func TestAdaptiveConfigProportional(t *testing.T) {
	g, _, place := exampleGlobal(t)       // x+y >= 20
	db := lang.Database{"x": 20, "y": 12} // slack 12
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.AdaptiveConfig(db, []int64{3, 1})
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatalf("adaptive config invalid: %v", err)
	}
	locals := localTreaties(t, tmpl, cfg)
	// Slack 12 split 9/3: site 0 may drop x to 11, site 1 y to 9.
	if !locals[0].Holds(lang.Database{"x": 11}) || locals[0].Holds(lang.Database{"x": 10}) {
		t.Fatalf("site 0 adaptive treaty should be x >= 11: %s", locals[0])
	}
	if !locals[1].Holds(lang.Database{"y": 9}) || locals[1].Holds(lang.Database{"y": 8}) {
		t.Fatalf("site 1 adaptive treaty should be y >= 9: %s", locals[1])
	}
}

// TestAdaptiveConfigZeroWeightsIsEqualSplit: no observed demand must
// reproduce the equal split exactly (the offline-initialization case).
func TestAdaptiveConfigZeroWeightsIsEqualSplit(t *testing.T) {
	g, db, place := exampleGlobal(t)
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	want := refEqualSplitConfig(tmpl, db)
	for _, weights := range [][]int64{nil, {0, 0}, {0}, {-1, -2}} {
		got := tmpl.AdaptiveConfig(db, weights)
		for v, val := range want {
			if got[v] != val {
				t.Fatalf("weights %v: config %s = %d, want equal-split %d", weights, v, got[v], val)
			}
		}
	}
}

// TestAdaptiveConfigValidRandomized: validity must not depend on the
// weights — random demand vectors over random databases always yield a
// configuration satisfying H1 and H2.
func TestAdaptiveConfigValidRandomized(t *testing.T) {
	g, _, place := exampleGlobal(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		x := rng.Int63n(30)
		y := 20 - x + rng.Int63n(25) // keep x+y >= 20
		db := lang.Database{"x": x, "y": y}
		tmpl, err := BuildTemplate(g, 2, place)
		if err != nil {
			t.Fatal(err)
		}
		weights := []int64{rng.Int63n(20) - 2, rng.Int63n(20) - 2}
		cfg := tmpl.AdaptiveConfig(db, weights)
		if err := tmpl.Validate(cfg, db); err != nil {
			t.Fatalf("weights %v on %v: %v", weights, db, err)
		}
	}
}

// TestAdaptiveConfigExtremeSkew: all demand on one site hands it the
// whole slack and pins the idle site at its current value.
func TestAdaptiveConfigExtremeSkew(t *testing.T) {
	g, _, place := exampleGlobal(t)
	db := lang.Database{"x": 25, "y": 15} // slack 20
	tmpl, err := BuildTemplate(g, 2, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tmpl.AdaptiveConfig(db, []int64{7, 0})
	if err := tmpl.Validate(cfg, db); err != nil {
		t.Fatal(err)
	}
	locals := localTreaties(t, tmpl, cfg)
	if !locals[0].Holds(lang.Database{"x": 5}) || locals[0].Holds(lang.Database{"x": 4}) {
		t.Fatalf("hot site should get the entire slack (x >= 5): %s", locals[0])
	}
	if locals[1].Holds(lang.Database{"y": 14}) {
		t.Fatalf("idle site should be pinned at y >= 15: %s", locals[1])
	}
}
