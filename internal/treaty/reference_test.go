package treaty

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
	"repro/internal/sat"
)

// This file keeps the optimizer as it was before the solve path moved to
// dense integer rows — map-backed terms, big.Rat Fourier–Motzkin, string
// soft keys, cloned futures, a fresh SAT solver per Fu-Malik iteration —
// and holds Optimize to it: same configuration, same statistics, same rng
// consumption.

// refLocalTerm is a site clause's local sum as a term.
func refLocalTerm(t *Template, sc *SiteClause) lia.Term {
	term := lia.NewTerm()
	for _, oc := range sc.local {
		term.AddVar(t.objVars[oc.col], oc.coeff)
	}
	return term
}

func refLocalSum(term lia.Term, db lang.Database) int64 {
	sum := term.Const
	for v, c := range term.Coeffs {
		sum += c * db.Get(lang.ObjID(v.Name))
	}
	return sum
}

func refHardConstraints(t *Template, db lang.Database) []lia.Constraint {
	var out []lia.Constraint
	for _, tc := range t.Clauses {
		n := -tc.Global.Term.Const
		k := int64(t.NSites)
		switch tc.Global.Op {
		case lia.LE:
			h1 := lia.NewTerm()
			h1.Const = (k - 1) * n
			for _, sc := range tc.Sites {
				h1.AddVar(sc.Config, -1)
			}
			out = append(out, lia.Constraint{Term: h1, Op: lia.LE})
			for i := range tc.Sites {
				h2 := lia.NewTerm()
				h2.AddVar(tc.Sites[i].Config, 1)
				h2.Const = refLocalSum(refLocalTerm(t, &tc.Sites[i]), db) - n
				out = append(out, lia.Constraint{Term: h2, Op: lia.LE})
			}
		case lia.EQ:
			for i := range tc.Sites {
				eq := lia.NewTerm()
				eq.AddVar(tc.Sites[i].Config, 1)
				eq.Const = refLocalSum(refLocalTerm(t, &tc.Sites[i]), db) - n
				out = append(out, lia.Constraint{Term: eq, Op: lia.EQ})
			}
		}
	}
	return out
}

type refSoft struct{ Constraints []lia.Constraint }

func refSoftFor(t *Template, db lang.Database) refSoft {
	var out refSoft
	for _, tc := range t.Clauses {
		if tc.Global.Op != lia.LE {
			continue
		}
		n := -tc.Global.Term.Const
		for i := range tc.Sites {
			cterm := lia.NewTerm()
			cterm.AddVar(tc.Sites[i].Config, 1)
			cterm.Const = refLocalSum(refLocalTerm(t, &tc.Sites[i]), db) - n
			out.Constraints = append(out.Constraints, lia.Constraint{Term: cterm, Op: lia.LE})
		}
	}
	return out
}

func refSoftKey(sc refSoft) string {
	parts := make([]string, len(sc.Constraints))
	for i, c := range sc.Constraints {
		parts[i] = fmt.Sprintf("%s %s 0", refTermString(c.Term), c.Op)
	}
	return strings.Join(parts, "|")
}

func refTermString(t lia.Term) string {
	var parts []string
	for _, v := range t.Vars() {
		switch c := t.Coeffs[v]; c {
		case 1:
			parts = append(parts, v.String())
		case -1:
			parts = append(parts, "-"+v.String())
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, v))
		}
	}
	if t.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", t.Const))
	}
	return strings.Join(parts, " + ")
}

func refTightenBounds(cs []lia.Constraint) []lia.Constraint {
	type key struct {
		v     logic.Var
		upper bool
	}
	floorDiv := func(a, b int64) int64 {
		q := a / b
		if (a%b != 0) && ((a < 0) != (b < 0)) {
			q--
		}
		return q
	}
	ceilDiv := func(a, b int64) int64 {
		q := a / b
		if (a%b != 0) && ((a < 0) == (b < 0)) {
			q++
		}
		return q
	}
	bound := func(v logic.Var, b int64, upper bool) lia.Constraint {
		t := lia.NewTerm()
		if upper {
			t.AddVar(v, 1)
			t.Const = -b
		} else {
			t.AddVar(v, -1)
			t.Const = b
		}
		return lia.Constraint{Term: t, Op: lia.LE}
	}
	best := make(map[key]int64)
	var rest []lia.Constraint
	for _, c := range cs {
		if c.Op == lia.EQ || len(c.Term.Coeffs) != 1 {
			rest = append(rest, c)
			continue
		}
		var v logic.Var
		var coeff int64
		for vv, cc := range c.Term.Coeffs {
			v, coeff = vv, cc
		}
		strictAdj := int64(0)
		if c.Op == lia.LT {
			strictAdj = 1
		}
		k := key{v: v, upper: coeff > 0}
		var b int64
		if coeff > 0 {
			b = floorDiv(-c.Term.Const-strictAdj, coeff)
		} else {
			b = ceilDiv(-c.Term.Const-strictAdj, coeff)
		}
		if cur, ok := best[k]; !ok || (k.upper && b < cur) || (!k.upper && b > cur) {
			best[k] = b
		}
	}
	out := rest
	vars := make(map[logic.Var]bool)
	for k := range best {
		vars[k.v] = true
	}
	for _, v := range logic.SortedVars(vars) {
		if b, ok := best[key{v: v, upper: false}]; ok {
			out = append(out, bound(v, b, false))
		}
		if b, ok := best[key{v: v, upper: true}]; ok {
			out = append(out, bound(v, b, true))
		}
	}
	return out
}

func refValidate(t *Template, cfg Config, db lang.Database) error {
	locals, err := t.LocalTreaties(cfg)
	if err != nil {
		return err
	}
	var all []lia.Constraint
	for _, l := range locals {
		if !l.Holds(db) {
			return fmt.Errorf("treaty: H2 violated: %s does not hold on current database", l)
		}
		all = append(all, l.Constraints...)
	}
	for _, tc := range t.Clauses {
		if !refImplies(all, tc.Global) {
			return fmt.Errorf("treaty: H1 violated: local treaties do not imply the global treaty")
		}
	}
	return nil
}

// refImplies decides premises => conclusion as infeasibility of premises
// && !conclusion on the big.Rat procedure.
func refImplies(premises []lia.Constraint, conclusion lia.Constraint) bool {
	neg := lia.NewTerm()
	neg.AddTerm(conclusion.Term, -1)
	with := func(c lia.Constraint) []lia.Constraint {
		return append(append([]lia.Constraint(nil), premises...), c)
	}
	if conclusion.Op == lia.EQ {
		return !lia.FeasibleRat(with(lia.Constraint{Term: conclusion.Term, Op: lia.LT})) &&
			!lia.FeasibleRat(with(lia.Constraint{Term: neg, Op: lia.LT}))
	}
	return !lia.FeasibleRat(with(lia.Constraint{Term: neg, Op: lia.LT}))
}

// refMaxsat is Fu-Malik with a fresh SAT solver and every clause re-added
// per iteration.
func refMaxsat(nVars int, hard0, soft0 [][]sat.Lit) (feasible bool, model []bool, iterations int) {
	hard := append([][]sat.Lit(nil), hard0...)
	soft := make([][]sat.Lit, len(soft0))
	for i, c := range soft0 {
		soft[i] = append([]sat.Lit(nil), c...)
	}
	origVars := nVars
	for {
		s := sat.New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, c := range hard {
			s.AddClause(c...)
		}
		selectors := make([]sat.Lit, len(soft))
		selToIdx := make(map[sat.Lit]int, len(soft))
		for i, c := range soft {
			sel := sat.Lit(s.NewVar())
			selectors[i] = sel
			selToIdx[sel] = i
			s.AddClause(append(append([]sat.Lit(nil), c...), sel.Neg())...)
		}
		iterations++
		if s.Solve(selectors...) == sat.Sat {
			return true, s.Model()[:origVars+1], iterations
		}
		if s.Solve() == sat.Unsat {
			return false, nil, iterations
		}
		core := s.Core(selectors)
		blocking := make([]sat.Lit, 0, len(core))
		for _, sel := range core {
			nVars++
			b := sat.Lit(nVars)
			blocking = append(blocking, b)
			soft[selToIdx[sel]] = append(soft[selToIdx[sel]], b)
		}
		for i := 0; i < len(blocking); i++ {
			for j := i + 1; j < len(blocking); j++ {
				hard = append(hard, []sat.Lit{blocking[i].Neg(), blocking[j].Neg()})
			}
		}
		hard = append(hard, append([]sat.Lit(nil), blocking...))
	}
}

// refFuture is the slice-returning sampling the optimizer used to do.
func refFuture(model WorkloadModel, rng *rand.Rand, db lang.Database, l int) []lang.Database {
	var out []lang.Database
	model.SampleFuture(rng, db, l, func(d lang.Database) { out = append(out, d.Clone()) })
	return out
}

func refOptimize(t *Template, db lang.Database, model WorkloadModel, opt OptimizeOptions) (Config, OptimizeStats) {
	var stats OptimizeStats
	hard := refHardConstraints(t, db)
	maxRounds := opt.MaxTheoryRounds
	if maxRounds <= 0 {
		maxRounds = 3
	}
	var softs []refSoft
	seen := make(map[string]bool)
	for i := 0; i < opt.CostFactor; i++ {
		for _, dj := range refFuture(model, opt.Rng, db, opt.Lookahead) {
			sc := refSoftFor(t, dj)
			if len(sc.Constraints) == 0 {
				continue
			}
			key := refSoftKey(sc)
			if seen[key] {
				continue
			}
			seen[key] = true
			softs = append(softs, sc)
		}
	}
	stats.SoftTotal = len(softs)
	if len(softs) == 0 {
		stats.UsedDefault = true
		return t.DefaultConfig(db), stats
	}
	feasible := func(idxs []int) (map[logic.Var]int64, bool) {
		cs := append([]lia.Constraint(nil), hard...)
		for _, idx := range idxs {
			cs = append(cs, softs[idx].Constraints...)
		}
		return lia.SolveModelRat(refTightenBounds(cs))
	}
	finish := func(selected []int) (Config, bool) {
		modelVals, ok := feasible(selected)
		if !ok {
			return nil, false
		}
		cfg := make(Config)
		for _, v := range t.ConfigVars() {
			cfg[v] = modelVals[v]
		}
		t.relaxIntoSlack(cfg)
		if err := refValidate(t, cfg, db); err != nil {
			return nil, false
		}
		stats.SoftSatisfied = len(selected)
		return cfg, true
	}
	minimize := func(selected []int) []int {
		core := append([]int(nil), selected...)
		checks := 0
		for i := 0; i < len(core) && checks < 48; {
			checks++
			trial := append(append([]int(nil), core[:i]...), core[i+1:]...)
			if _, ok := feasible(trial); !ok {
				core = trial
			} else {
				i++
			}
		}
		return core
	}
	var blocked [][]int
	if opt.Warm != nil {
		allIdx := make([]int, len(softs))
		for i := range softs {
			allIdx[i] = i
		}
		stats.TheoryRounds = 1
		if cfg, ok := finish(allIdx); ok {
			stats.WarmStart = true
			return cfg, stats
		}
		stats.WarmFallback = true
		blocked = append(blocked, minimize(allIdx))
	}
	for stats.TheoryRounds < maxRounds {
		stats.TheoryRounds++
		var hardClauses, softClauses [][]sat.Lit
		for i := range softs {
			softClauses = append(softClauses, []sat.Lit{sat.Lit(i + 1)})
		}
		for _, set := range blocked {
			var clause []sat.Lit
			for _, idx := range set {
				clause = append(clause, sat.Lit(-(idx + 1)))
			}
			hardClauses = append(hardClauses, clause)
		}
		ok, assignment, iterations := refMaxsat(len(softs), hardClauses, softClauses)
		stats.MaxSATIterations += iterations
		if !ok {
			break
		}
		var selected []int
		for i := range softs {
			if assignment[i+1] {
				selected = append(selected, i)
			}
		}
		if cfg, ok := finish(selected); ok {
			return cfg, stats
		}
		if len(selected) == 0 {
			break
		}
		blocked = append(blocked, minimize(selected))
	}
	stats.GreedyFallback = true
	var kept []int
	for i := range softs {
		if _, ok := feasible(append(append([]int(nil), kept...), i)); ok {
			kept = append(kept, i)
		}
	}
	if cfg, ok := finish(kept); ok {
		return cfg, stats
	}
	stats.UsedDefault = true
	return t.DefaultConfig(db), stats
}

// refEqualSplitConfig is EqualSplitConfig as it stood before the equal split
// became AdaptiveConfig without weights: the OPT baseline's configuration
// (Section 6.1), the slack of each inequality clause split equally among
// the sites, the first sites taking the remainder.
func refEqualSplitConfig(t *Template, db lang.Database) Config {
	cfg := make(Config)
	for _, tc := range t.Clauses {
		n := -tc.Global.Term.Const
		switch tc.Global.Op {
		case lia.EQ:
			for _, sc := range tc.Sites {
				cfg[sc.Config] = n - sc.localSum(db)
			}
		case lia.LE:
			total := int64(0)
			for _, sc := range tc.Sites {
				total += sc.localSum(db)
			}
			slack := n - total
			if slack < 0 {
				slack = 0
			}
			k := int64(t.NSites)
			share := slack / k
			rem := slack - share*k
			for i, sc := range tc.Sites {
				extra := int64(0)
				if int64(i) < rem {
					extra = 1
				}
				cfg[sc.Config] = n - sc.localSum(db) - share - extra
			}
		}
	}
	return cfg
}

// TestEqualSplitIsAdaptiveWithEqualWeights: on seeded random templates and
// databases — inside the global treaty and pushed outside it, where the
// slack clamps at zero — AdaptiveConfig under no weights, zero weights and
// any equal positive weights is the reference's equal split, variable by
// variable.
func TestEqualSplitIsAdaptiveWithEqualWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	remainders := 0
	for i := 0; i < 400; i++ {
		tmpl, db, _, err := randomCase(rng)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			for obj := range db {
				db[obj] += rng.Int63n(41) - 20
			}
		}
		want := refEqualSplitConfig(tmpl, db)
		equal := make([]int64, tmpl.NSites)
		for k, w := range equal {
			equal[k] = w + 1 + int64(i%7)
		}
		for _, weights := range [][]int64{nil, make([]int64, tmpl.NSites), {0}, equal, append(equal[:len(equal):len(equal)], 9)} {
			if got := tmpl.AdaptiveConfig(db, weights); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d, weights %v:\n got %v\nwant %v", i, weights, got, want)
			}
		}
		for _, tc := range tmpl.Clauses {
			if first, last := tc.Sites[0].Config, tc.Sites[tmpl.NSites-1].Config; tc.Global.Op == lia.LE &&
				want[first]+tc.Sites[0].localSum(db) != want[last]+tc.Sites[tmpl.NSites-1].localSum(db) {
				remainders++
			}
		}
	}
	if remainders < 50 {
		t.Fatalf("only %d clauses left a remainder to hand out; the generator drifted", remainders)
	}
}

// walkModel moves one random object by a random step per transaction,
// mostly downwards, so futures run into the treaty boundary.
type walkModel struct{ step int64 }

func (m walkModel) SampleFuture(rng *rand.Rand, db lang.Database, l int, visit func(lang.Database)) {
	cur := db.Clone()
	objs := cur.Objects()
	for i := 0; i < l; i++ {
		cur[objs[rng.Intn(len(objs))]] += rng.Int63n(2*m.step) - (m.step + m.step/2)
		visit(cur)
	}
}

// randomCase draws a template, a database satisfying its global treaty and
// a workload model: one to three clauses sum d_i x_i <= n or = n over two
// to five objects spread over two to four sites.
func randomCase(rng *rand.Rand) (*Template, lang.Database, WorkloadModel, error) {
	nSites := 2 + rng.Intn(3)
	nObjs := 2 + rng.Intn(4)
	db := lang.Database{}
	objs := make([]lang.ObjID, nObjs)
	for i := range objs {
		objs[i] = lang.ObjID(fmt.Sprintf("o%d", i))
		db[objs[i]] = rng.Int63n(60) - 10
	}
	var g Global
	for c, nc := 0, 1+rng.Intn(3); c < nc; c++ {
		term := lia.NewTerm()
		for _, obj := range objs {
			if rng.Intn(3) > 0 {
				term.AddVar(logic.Obj(obj), []int64{-1, -1, -1, 1, -2, 3}[rng.Intn(6)])
			}
		}
		if term.IsConst() {
			term.AddVar(logic.Obj(objs[0]), -1)
		}
		// Place the boundary at or a little beyond the current value.
		sum := refLocalSum(term, db)
		op := lia.LE
		if rng.Intn(6) == 0 {
			op = lia.EQ
		} else {
			sum += rng.Int63n(25)
		}
		term.Const = -sum
		g.Constraints = append(g.Constraints, lia.Constraint{Term: term, Op: op})
	}
	t, err := BuildTemplate(g, nSites, func(obj lang.ObjID) int { return int(obj[1]-'0') % nSites })
	return t, db, walkModel{step: 1 + rng.Int63n(6)}, err
}

// TestOptimizeMatchesReference: on seeded random templates and databases,
// cold and warm, Optimize returns the reference's configuration and
// statistics and leaves the rng where the reference leaves it. The cases
// must cover theory conflicts, warm fallbacks and the greedy fallback.
func TestOptimizeMatchesReference(t *testing.T) {
	src := rand.New(rand.NewSource(13))
	var cases, conflicts, warmFallbacks, greedy, defaults int
	for cases < 240 {
		tmpl, db, model, err := randomCase(src)
		if err != nil {
			t.Fatal(err)
		}
		cases++
		seed := src.Int63()
		opts := func() OptimizeOptions {
			return OptimizeOptions{
				Lookahead:       []int{20, 6, 35}[cases%3],
				CostFactor:      1 + cases%4,
				MaxTheoryRounds: cases % 5, // 0 is the default
				Rng:             rand.New(rand.NewSource(seed)),
			}
		}
		var hint Config
		for _, warm := range []bool{false, true} {
			got, want := opts(), opts()
			if warm {
				got.Warm, want.Warm = hint, hint
			}
			cfg, stats := Optimize(tmpl, db, model, got)
			refCfg, refStats := refOptimize(tmpl, db, model, want)
			if !reflect.DeepEqual(cfg, refCfg) || stats != refStats {
				t.Fatalf("case %d (seed %d, warm %v):\n got %v %+v\nwant %v %+v", cases, seed, warm, cfg, stats, refCfg, refStats)
			}
			if a, b := got.Rng.Int63(), want.Rng.Int63(); a != b {
				t.Fatalf("case %d (seed %d, warm %v): rng streams diverged", cases, seed, warm)
			}
			if err := tmpl.Validate(cfg, db); err != nil {
				t.Fatalf("case %d (seed %d, warm %v): %v", cases, seed, warm, err)
			}
			hint = cfg
			switch {
			case stats.WarmFallback:
				warmFallbacks++
			case stats.UsedDefault:
				defaults++
			case stats.GreedyFallback:
				greedy++
			case stats.TheoryRounds > 1:
				conflicts++
			}
		}
	}
	t.Logf("%d cases: %d with theory conflicts, %d warm fallbacks, %d greedy fallbacks, %d defaults",
		cases, conflicts, warmFallbacks, greedy, defaults)
	if conflicts == 0 || warmFallbacks == 0 || greedy == 0 {
		t.Fatal("the cases miss a path of the optimizer")
	}
}

// TestSoftKeyExact: two sampled databases get equal structural keys
// exactly when they got equal string keys, so deduplication classes are
// what they were.
func TestSoftKeyExact(t *testing.T) {
	src := rand.New(rand.NewSource(5))
	equal, distinct := 0, 0
	for trial := 0; trial < 300; trial++ {
		tmpl, db, _, err := randomCase(src)
		if err != nil {
			t.Fatal(err)
		}
		var s solver
		s.begin(tmpl, db)
		keys := make(map[string]string) // structural key -> string key
		back := make(map[string]string)
		for i := 0; i < 40; i++ {
			d := db.Clone()
			for obj := range d {
				d[obj] += src.Int63n(3) - 1
			}
			soft := refSoftFor(tmpl, d)
			if len(soft.Constraints) == 0 {
				continue
			}
			s.soft = s.soft[:0]
			s.seen = map[string]struct{}{}
			s.visit(d)
			structural, str := string(bytes.Clone(s.key)), refSoftKey(soft)
			if prev, ok := keys[structural]; ok && prev != str {
				t.Fatalf("structural key %x stands for %q and %q", structural, prev, str)
			}
			if prev, ok := back[str]; ok && prev != structural {
				t.Fatalf("string key %q has structural keys %x and %x", str, prev, structural)
			}
			if _, ok := keys[structural]; ok {
				equal++
			} else {
				distinct++
			}
			keys[structural], back[str] = str, structural
		}
	}
	if equal == 0 || distinct == 0 {
		t.Fatalf("%d repeated and %d new keys: the trials do not exercise both", equal, distinct)
	}
}
