package treaty

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
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
	for _, lt := range sc.local {
		term.AddVar(logic.Obj(lt.Obj), lt.Coeff)
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
	locals, err := refLocalTreaties(t, cfg)
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
		for _, v := range t.configVars {
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

// TestSoftDedupExact: a sampled database adds a soft constraint exactly
// when its string key is new, so deduplication classes are what they
// were — also when two distinct soft constraints share a hash, which the
// test forces by pointing every new constraint's hash at the one before.
func TestSoftDedupExact(t *testing.T) {
	src := rand.New(rand.NewSource(5))
	equal, distinct, forced := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		tmpl, db, _, err := randomCase(src)
		if err != nil {
			t.Fatal(err)
		}
		var s solver
		s.heads = map[uint64]int32{}
		s.begin(tmpl, db)
		seen := map[string]bool{}
		var last []int64
		for i := 0; i < 40; i++ {
			d := db.Clone()
			for obj := range d {
				d[obj] += src.Int63n(3) - 1
			}
			soft := refSoftFor(tmpl, d)
			if len(soft.Constraints) == 0 {
				continue
			}
			n := s.numSoft()
			if trial%2 == 1 && last != nil {
				// Make d's hash lead to the last distinct constraint.
				consts := make([]int64, len(s.bounds))
				for b, sb := range s.bounds {
					consts[b] = sb.sc.localSum(d) - sb.n
				}
				if _, ok := s.heads[softHash(consts)]; !ok && !slices.Equal(consts, last) {
					s.heads[softHash(consts)] = int32(n - 1)
					forced++
				}
			}
			s.visit(d)
			key := refSoftKey(soft)
			if added := s.numSoft() > n; added == seen[key] {
				t.Fatalf("trial %d: key %q seen %v, soft constraint added %v", trial, key, seen[key], added)
			}
			if seen[key] {
				equal++
			} else {
				distinct++
				last = slices.Clone(s.soft[n*len(s.bounds):])
			}
			seen[key] = true
		}
	}
	if equal == 0 || distinct == 0 || forced == 0 {
		t.Fatalf("%d repeated, %d new and %d colliding constraints: the trials do not exercise all three", equal, distinct, forced)
	}
}

// What follows is the local treaty as it was before it took one flat shape
// — a map-backed lia.Constraint per clause, instantiated by LocalTreaty,
// interpreted through a logic.Binding by Holds, flattened and sorted by
// Compile — kept as the oracle the flat Local, LocalTreaties, Compile and
// AppendTo are held to. refOf carries a flat treaty over.

// refLocal is the local treaty of one site: constraints over that site's
// objects only, obtained by instantiating the template's configuration
// variables.
type refLocal struct {
	Site        int
	Constraints []lia.Constraint
}

// Holds reports whether the (site-local view of the) database satisfies
// the local treaty.
func (l refLocal) Holds(db lang.Database) bool {
	b := logic.DBBinding(db, nil, nil)
	for _, c := range l.Constraints {
		ok, err := c.Eval(b)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

func (l refLocal) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends the treaty as "site k: " and its constraints joined by
// " && ".
func (l refLocal) AppendTo(b []byte) []byte {
	b = append(strconv.AppendInt(append(b, "site "...), int64(l.Site), 10), ": "...)
	for i, c := range l.Constraints {
		if i > 0 {
			b = append(b, " && "...)
		}
		b = c.AppendTo(b)
	}
	return b
}

// refLocalTreaty instantiates site k's local treaty under the configuration:
// for each clause, sum_{local} d_i x_i + c_k + C (op) 0.
func refLocalTreaty(t *Template, site int, cfg Config) (refLocal, error) {
	out := refLocal{Site: site}
	for j, tc := range t.Clauses {
		sc := tc.Sites[site]
		val, ok := cfg[sc.Config]
		if !ok {
			return refLocal{}, fmt.Errorf("treaty: clause %d site %d: unassigned config %s",
				j, site, sc.Config)
		}
		term := lia.Term{Coeffs: make(map[logic.Var]int64, len(sc.local)), Const: val + tc.Global.Term.Const}
		for _, lt := range sc.local {
			term.Coeffs[logic.Obj(lt.Obj)] = lt.Coeff
		}
		out.Constraints = append(out.Constraints, lia.Constraint{Term: term, Op: tc.Global.Op})
	}
	return out, nil
}

// refLocalTreaties instantiates every site's local treaty.
func refLocalTreaties(t *Template, cfg Config) ([]refLocal, error) {
	out := make([]refLocal, t.NSites)
	for k := 0; k < t.NSites; k++ {
		l, err := refLocalTreaty(t, k, cfg)
		if err != nil {
			return nil, err
		}
		out[k] = l
	}
	return out, nil
}

// refTerm is one summand of a compiled constraint.
type refTerm struct {
	obj   lang.ObjID
	coeff int64
}

// refCompiledConstraint is one constraint flattened into its summands, in
// ascending object order: sum_i terms[i].coeff * terms[i].obj + konst op 0.
type refCompiledConstraint struct {
	terms []refTerm
	konst int64
	op    lia.RelOp
}

func (c *refCompiledConstraint) holds(db ObjReader) bool {
	sum := c.konst
	for _, t := range c.terms {
		sum += t.coeff * db.Get(t.obj)
	}
	switch c.op {
	case lia.LE:
		return sum <= 0
	case lia.LT:
		return sum < 0
	default: // lia.EQ
		return sum == 0
	}
}

// refCompiledLocal is one site's local treaty compiled for the per-commit
// check. The zero value is not meaningful; build with Compile.
type refCompiledLocal struct {
	site int

	// alwaysFalse short-circuits treaties containing an unsatisfiable
	// ground constraint (or an empty interval).
	alwaysFalse bool

	// Demarcation fast path: every constraint bounds the same linear sum
	// s = sum_i terms[i].coeff*terms[i].obj (up to sign), so the whole
	// treaty is lo <= s <= hi — one pass over the objects, two
	// comparisons. This is the common shape: local treaties instantiated
	// from single-clause global treaties like the microbenchmark's stock
	// bound.
	interval bool
	terms    []refTerm
	lo, hi   int64

	// general holds the remaining constraints when the sweep above does
	// not apply.
	general []refCompiledConstraint
}

// Site returns the site the treaty was compiled for.
func (c *refCompiledLocal) Site() int { return c.site }

// refCompile specializes a local treaty for repeated evaluation. It fails if
// a constraint mentions a non-object variable (a configuration variable
// left uninstantiated, for example), so that a malformed treaty surfaces
// as an error at generation time rather than masquerading as a violation
// on the commit path.
//
// A round compiles every site's treaty of every unit it renegotiates, so
// the summands of all constraints share one allocation, sorted in place
// constraint by constraint; a demarcation-shaped treaty (the common case)
// allocates nothing else.
func refCompile(l refLocal) (refCompiledLocal, error) {
	out := refCompiledLocal{site: l.Site}
	total := 0
	for i := range l.Constraints {
		total += len(l.Constraints[i].Term.Coeffs)
	}
	arena := make([]refTerm, 0, total)
	var consBuf [4]refCompiledConstraint
	cons := consBuf[:0]
	for i := range l.Constraints {
		c := &l.Constraints[i]
		start := len(arena)
		//homeo:nondet summands are sorted by object below; order invisible
		for v, coeff := range c.Term.Coeffs {
			if v.Kind != logic.ObjVar {
				return refCompiledLocal{}, refErrNonObject(l.Site, *c)
			}
			arena = append(arena, refTerm{lang.ObjID(v.Name), coeff})
		}
		cc := refCompiledConstraint{terms: arena[start:len(arena):len(arena)], konst: c.Term.Const, op: c.Op}
		if len(cc.terms) == 0 {
			// Ground constraint: fold it now. Keep scanning so a
			// malformed constraint later in the list is still rejected.
			if !cc.holds(lang.Database(nil)) {
				out.alwaysFalse = true
			}
			continue
		}
		slices.SortFunc(cc.terms, refCompareTerms)
		cons = append(cons, cc)
	}
	if out.alwaysFalse {
		return out, nil
	}
	out.compileInterval(cons)
	return out, nil
}

func refCompareTerms(a, b refTerm) int { return strings.Compare(string(a.obj), string(b.obj)) }

// refErrNonObject reports the constraint's first non-object variable (in
// canonical order, so the message does not depend on map order).
func refErrNonObject(site int, c lia.Constraint) error {
	for _, v := range c.Term.Vars() {
		if v.Kind != logic.ObjVar {
			return fmt.Errorf(
				"treaty: compile: site %d local treaty mentions non-object variable %s in %s",
				site, v, c)
		}
	}
	return nil
}

// compileInterval detects the demarcation shape: every constraint bounds
// the same linear sum (up to sign). On success it fills the interval
// fields; otherwise it stores the constraints for the general path.
func (c *refCompiledLocal) compileInterval(cons []refCompiledConstraint) {
	if len(cons) == 0 {
		// Vacuously true treaty.
		return
	}
	spec := cons[0]
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for i := range cons {
		sign, ok := refSumSign(&spec, &cons[i])
		if !ok {
			// cons is the caller's stack buffer.
			c.general = slices.Clone(cons)
			return
		}
		// The constraint is sign*s + konst op 0 for s = spec's sum. The
		// negations and ±1 adjustments saturate instead of wrapping: a
		// bound beyond the int64 range is either vacuous (no int64 sum
		// can violate it) or unsatisfiable (no int64 sum can meet it),
		// never a silently erased constraint.
		k := cons[i].konst
		switch cons[i].op {
		case lia.LE:
			if sign > 0 { // s <= -k
				if k == math.MinInt64 {
					break // s <= 2^63: vacuous over int64
				}
				hi = min(hi, -k)
			} else { // s >= k
				lo = max(lo, k)
			}
		case lia.LT:
			if sign > 0 { // s < -k, integer s
				if k == math.MinInt64 {
					break // s < 2^63: vacuous over int64
				}
				hi = min(hi, -k-1)
			} else { // s > k
				if k == math.MaxInt64 {
					c.alwaysFalse = true // s > 2^63-1: unsatisfiable
					return
				}
				lo = max(lo, k+1)
			}
		case lia.EQ:
			if k == math.MinInt64 && sign > 0 {
				c.alwaysFalse = true // s = 2^63: unsatisfiable over int64
				return
			}
			v := -sign * k
			lo = max(lo, v)
			hi = min(hi, v)
		}
	}
	c.interval = true
	c.terms = spec.terms
	c.lo, c.hi = lo, hi
	if lo > hi {
		c.alwaysFalse = true
	}
}

// refSumSign reports whether b's linear part equals spec's (+1) or its
// negation (-1). Both are sorted by object, so the order is canonical.
func refSumSign(spec, b *refCompiledConstraint) (int64, bool) {
	if len(spec.terms) != len(b.terms) {
		return 0, false
	}
	var sign int64
	for i := range spec.terms {
		if spec.terms[i].obj != b.terms[i].obj {
			return 0, false
		}
		switch b.terms[i].coeff {
		case spec.terms[i].coeff:
			if sign == -1 {
				return 0, false
			}
			sign = 1
		case -spec.terms[i].coeff:
			if sign == 1 {
				return 0, false
			}
			sign = -1
		default:
			return 0, false
		}
	}
	return sign, true
}

// Holds reports whether the compiled local treaty is satisfied by the
// given state. It cannot fail: non-object variables were rejected at
// compile time and missing objects read as zero.
func (c *refCompiledLocal) Holds(db ObjReader) bool {
	if c.alwaysFalse {
		return false
	}
	if c.interval {
		s := int64(0)
		for _, t := range c.terms {
			s += t.coeff * db.Get(t.obj)
		}
		return c.lo <= s && s <= c.hi
	}
	for i := range c.general {
		if !c.general[i].holds(db) {
			return false
		}
	}
	return true
}

// refOf is the flat treaty in the map-backed shape.
func refOf(l Local) refLocal {
	out := refLocal{Site: l.Site}
	for _, c := range l.Constraints {
		term := lia.Term{Coeffs: make(map[logic.Var]int64, len(c.Terms)), Const: c.Const}
		for _, t := range c.Terms {
			term.Coeffs[logic.Obj(t.Obj)] = t.Coeff
		}
		out.Constraints = append(out.Constraints, lia.Constraint{Term: term, Op: c.Op})
	}
	return out
}

// TestLocalTreatiesMatchReference: on seeded random templates, under the
// default and the equal-split configuration, the flat LocalTreaties are the
// reference's site for site — same constraints, same rendered bytes — and
// compile to the check the reference's Compile builds.
func TestLocalTreatiesMatchReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		tmpl, db, _, err := randomCase(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{tmpl.DefaultConfig(db), tmpl.AdaptiveConfig(db, nil)} {
			got, err := tmpl.LocalTreaties(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refLocalTreaties(tmpl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if !reflect.DeepEqual(refOf(got[k]), want[k]) || got[k].String() != want[k].String() {
					t.Fatalf("seed %d site %d:\n got %s\nwant %s", seed, k, got[k], want[k])
				}
				c, err := Compile(got[k])
				if err != nil {
					t.Fatalf("seed %d site %d: %v", seed, k, err)
				}
				rc, err := refCompile(want[k])
				if err != nil {
					t.Fatal(err)
				}
				if c.interval != rc.interval || c.alwaysFalse != rc.alwaysFalse || c.lo != rc.lo || c.hi != rc.hi || c.Holds(db) != rc.Holds(db) {
					t.Fatalf("seed %d site %d: %s compiles to %+v, reference %+v", seed, k, got[k], c, rc)
				}
			}
		}
	}
	// An unassigned configuration variable is an error, as it was.
	tmpl, db, _, _ := randomCase(rand.New(rand.NewSource(1)))
	cfg := tmpl.DefaultConfig(db)
	delete(cfg, tmpl.configVars[0])
	_, err := tmpl.LocalTreaties(cfg)
	_, werr := refLocalTreaties(tmpl, cfg)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Errorf("unassigned configuration variable: %v, reference %v", err, werr)
	}
}
