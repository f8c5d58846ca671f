// Package treaty implements treaty generation for the homeostasis
// protocol (Section 4 and Appendix C of the paper): preprocessing a
// symbolic-table guard into a conjunction of linear constraints, deriving
// per-site local-treaty templates with configuration variables, the
// always-valid default configuration of Theorem 4.3, and the MaxSAT-based
// optimizer of Algorithm 1.
package treaty

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
)

// Placement maps each database object to the site that owns it.
type Placement func(lang.ObjID) int

// Global is a global treaty: a conjunction of linear constraints over
// database objects, each in canonical form Term op 0 with op in {LE, EQ}
// (strict inequalities are normalized away using integrality).
type Global struct {
	Constraints []lia.Constraint
}

// Holds reports whether the database satisfies the global treaty.
func (g Global) Holds(db lang.Database) bool {
	b := logic.DBBinding(db, nil, nil)
	for _, c := range g.Constraints {
		ok, err := c.Eval(b)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

func (g Global) String() string {
	parts := make([]string, len(g.Constraints))
	for i, c := range g.Constraints {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}

// PinGlobal holds every object's logical value where folded has it:
// obj + Σ_k obj@dk = folded[obj] over nSites sites, one equality per object.
// Any write violates it whatever the configuration, so the unit synchronizes
// on every update and the cleanup phase applies the transaction on
// consolidated state — always observationally correct. It is the treaty of
// a value no guard analysis bounds (the Appendix C.3 treatment of remote
// reads, a data type without a merge function) and the fallback wherever
// an analysis does not apply.
func PinGlobal(objs []lang.ObjID, nSites int, folded lang.Database) Global {
	g := Global{Constraints: make([]lia.Constraint, len(objs))}
	var room [8]lang.ObjID
	for i, obj := range objs {
		pin := lia.NewTerm()
		pin.AddVar(logic.Obj(obj), 1)
		// Every site's delta name is cut from one string: one allocation
		// per object, not one per site.
		for _, d := range lang.AppendDeltaObjs(room[:0], obj, 0, nSites) {
			pin.AddVar(logic.Obj(d), 1)
		}
		pin.Const = -folded.Get(obj)
		g.Constraints[i] = lia.Constraint{Term: pin, Op: lia.EQ}
	}
	return g
}

// RepinGlobal rewrites g, a PinGlobal over objs, in place to hold objs where
// folded has them: a pin's shape depends on the objects and the width
// alone, so only each equality's constant moves.
func RepinGlobal(g Global, objs []lang.ObjID, folded lang.Database) {
	for i, obj := range objs {
		g.Constraints[i].Term.Const = -folded.Get(obj)
	}
}

// Term is one summand of a local-treaty constraint: Coeff times the value
// of Obj.
type Term struct {
	Obj   lang.ObjID
	Coeff int64
}

// Constraint is one site's share of a global clause under a configuration
// (Section 4.2): Σ Terms[i].Coeff·Terms[i].Obj + Const (Op) 0, the
// configuration value folded into Const. It is canonical when Terms is in
// ascending object order with no zero coefficient and no repeated object —
// what BuildTemplate emits, and what Compile holds a constraint built by
// hand, sent by a peer or read from a log to.
type Constraint struct {
	Terms []Term
	Const int64
	Op    lia.RelOp
}

// TermOrder is the canonical order of a constraint's terms: ascending
// object name.
func TermOrder(a, b Term) int { return strings.Compare(string(a.Obj), string(b.Obj)) }

// holds evaluates the constraint; absent objects read as zero, and a sum
// that leaves int64 counts as violated.
func (c *Constraint) holds(db ObjReader) bool {
	sum, ok := termSum(c.Const, c.Terms, db)
	if !ok {
		return false
	}
	switch c.Op {
	case lia.LE:
		return sum <= 0
	case lia.LT:
		return sum < 0
	default: // lia.EQ
		return sum == 0
	}
}

// AppendTo appends the constraint as "term op 0", the term as lia.Term
// renders it.
func (c *Constraint) AppendTo(b []byte) []byte {
	start := len(b)
	for _, t := range c.Terms {
		b = lia.AppendSummand(b, start, t.Coeff, string(t.Obj))
	}
	b = append(lia.AppendConst(b, start, c.Const), ' ')
	return append(append(b, c.Op.String()...), " 0"...)
}

// Local is the local treaty of one site: constraints over that site's
// objects only, obtained by instantiating the template's configuration
// variables. It is one shape from the template to the commit check: the
// deriver's memo keeps it, Compile aliases it, and only the wire and the
// log re-key it. A Local is never written after it is built.
type Local struct {
	Site        int
	Constraints []Constraint
}

func (l Local) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends the treaty as "site k: " and its constraints joined by
// " && ".
func (l Local) AppendTo(b []byte) []byte {
	b = append(strconv.AppendInt(append(b, "site "...), int64(l.Site), 10), ": "...)
	for i := range l.Constraints {
		if i > 0 {
			b = append(b, " && "...)
		}
		b = l.Constraints[i].AppendTo(b)
	}
	return b
}

// SiteClause is one site's share of a global clause: the sum of the
// clause's terms over objects local to the site, plus a fresh
// configuration variable.
type SiteClause struct {
	Site   int
	Config logic.Var

	col int // Config's column in Template.configVars
	// local is the local sum in canonical form (see Constraint); every
	// local treaty the template instantiates aliases it.
	local []Term
}

// TemplateClause pairs a global clause with its per-site split.
type TemplateClause struct {
	Global lia.Constraint
	Sites  []SiteClause // indexed by site id 0..NSites-1
}

// Template is the set of local treaty templates for all sites
// (Section 4.2): a per-clause, per-site decomposition with configuration
// variables awaiting instantiation.
type Template struct {
	NSites  int
	Clauses []TemplateClause

	// The two variable tables the solver's dense rows are indexed by, each
	// in logic.SortVars order: every configuration variable, and every
	// object the global treaty mentions.
	configVars []logic.Var
	objVars    []logic.Var
}

// Config assigns integer values to configuration variables.
type Config map[logic.Var]int64

// BuildTemplate splits each global constraint by site ownership, creating
// one configuration variable per (clause, site) pair, exactly as in the
// paper: a clause sum d_i x_i (op) n becomes, at site k,
// sum_{Loc(x_i)=k} d_i x_i + c_k (op) n.
func BuildTemplate(g Global, nSites int, place Placement) (*Template, error) {
	t := &Template{NSites: nSites, Clauses: make([]TemplateClause, 0, len(g.Constraints))}
	var name []byte
	for j, gc := range g.Constraints {
		if gc.Op == lia.LT {
			return nil, fmt.Errorf("treaty: clause %d not normalized (LT)", j)
		}
		tc := TemplateClause{Global: gc.Clone(), Sites: make([]SiteClause, nSites)}
		for k := range tc.Sites {
			name = strconv.AppendInt(append(strconv.AppendInt(append(name[:0], 'c'), int64(j), 10), '_'), int64(k), 10)
			tc.Sites[k] = SiteClause{Site: k, Config: logic.Config(string(name))}
			t.configVars = append(t.configVars, tc.Sites[k].Config)
		}
		// Vars is in ascending name order, so each site's sum comes out
		// canonical.
		for _, v := range gc.Term.Vars() {
			if v.Kind != logic.ObjVar {
				return nil, fmt.Errorf("treaty: clause %d mentions non-object variable %s", j, v)
			}
			coeff := gc.Term.Coeffs[v]
			if coeff == 0 {
				continue
			}
			site := place(lang.ObjID(v.Name))
			if site < 0 || site >= nSites {
				return nil, fmt.Errorf("treaty: object %s placed on invalid site %d", v.Name, site)
			}
			tc.Sites[site].local = append(tc.Sites[site].local, Term{Obj: lang.ObjID(v.Name), Coeff: coeff})
			t.objVars = append(t.objVars, v)
		}
		t.Clauses = append(t.Clauses, tc)
	}
	logic.SortVars(t.configVars)
	logic.SortVars(t.objVars)
	t.objVars = slices.Compact(t.objVars)
	for j := range t.Clauses {
		for k := range t.Clauses[j].Sites {
			sc := &t.Clauses[j].Sites[k]
			sc.col, _ = slices.BinarySearchFunc(t.configVars, sc.Config, logic.CompareVars)
		}
	}
	return t, nil
}

// localSum evaluates the site-local part of a clause on a database.
//
//homeo:hotpath
func (sc *SiteClause) localSum(db lang.Database) int64 {
	sum := int64(0)
	for _, t := range sc.local {
		sum += t.Coeff * db.Get(t.Obj)
	}
	return sum
}

// setRow writes the local sum into a dense row over Template.objVars.
func (t *Template) setRow(row []int64, sc *SiteClause) {
	for _, lt := range sc.local {
		col, _ := slices.BinarySearchFunc(t.objVars, logic.Obj(lt.Obj), logic.CompareVars)
		row[col] = lt.Coeff
	}
}

// DefaultConfig is the Theorem 4.3 configuration, valid for any database
// satisfying the global treaty: c_k = n - S_k(D) for inequality clauses
// and the complementary-sum value (which coincides) for equalities. Under
// it, each site's local treaty pins its local sum at the current value.
func (t *Template) DefaultConfig(db lang.Database) Config {
	cfg := make(Config)
	for _, tc := range t.Clauses {
		// Canonical clause: Term + 0 (op) 0 with n = -Term.Const.
		n := -tc.Global.Term.Const
		for _, sc := range tc.Sites {
			cfg[sc.Config] = n - sc.localSum(db)
		}
	}
	return cfg
}

// LocalTreaties instantiates every site's local treaty under the
// configuration: for each clause, sum_{local} d_i x_i + c_k + C (op) 0. The
// constraints alias the template's local sums; all sites' constraints share
// one slice.
func (t *Template) LocalTreaties(cfg Config) ([]Local, error) {
	out := make([]Local, t.NSites)
	n := len(t.Clauses)
	cons := make([]Constraint, t.NSites*n)
	for k := range out {
		out[k] = Local{Site: k, Constraints: cons[k*n : (k+1)*n : (k+1)*n]}
		for j := range t.Clauses {
			tc := &t.Clauses[j]
			sc := &tc.Sites[k]
			val, ok := cfg[sc.Config]
			if !ok {
				return nil, errUnassigned(j, sc)
			}
			cons[k*n+j] = Constraint{Terms: sc.local, Const: val + tc.Global.Term.Const, Op: tc.Global.Op}
		}
	}
	return out, nil
}

func errUnassigned(clause int, sc *SiteClause) error {
	return fmt.Errorf("treaty: clause %d site %d: unassigned config %s", clause, sc.Site, sc.Config)
}

// Validate checks that a configuration is a valid treaty configuration:
// H2 directly on D, and H1 by linear-arithmetic implication (the
// conjunction of all local treaties implies every global clause). This is
// the Lemma 4.2 / Theorem 4.3 property.
func (t *Template) Validate(cfg Config, db lang.Database) error {
	s := solvers.Get().(*solver)
	defer solvers.Put(s)
	return t.validate(&s.sys, cfg, db)
}

// validate is Validate on the caller's system: the local treaties become
// rows over the template's object table, site by site, and each global
// clause is then tested against them.
func (t *Template) validate(sys *lia.System, cfg Config, db lang.Database) error {
	sys.Reset(t.objVars)
	n := len(t.objVars)
	for k := 0; k < t.NSites; k++ {
		for j := range t.Clauses {
			tc := &t.Clauses[j]
			sc := &tc.Sites[k]
			val, ok := cfg[sc.Config]
			if !ok {
				return errUnassigned(j, sc)
			}
			c := val + tc.Global.Term.Const
			row := sys.AddRow(tc.Global.Op)
			t.setRow(row, sc)
			row[n] = c
			if sum := sc.localSum(db) + c; sum > 0 || (sum < 0 && tc.Global.Op == lia.EQ) {
				return fmt.Errorf("treaty: H2 violated: %s does not hold on current database",
					Local{Site: k, Constraints: []Constraint{{Terms: sc.local, Const: c, Op: tc.Global.Op}}})
			}
		}
	}
	for j := range t.Clauses {
		tc := &t.Clauses[j]
		row := sys.AddRow(tc.Global.Op)
		for k := range tc.Sites {
			t.setRow(row, &tc.Sites[k])
		}
		row[n] = tc.Global.Term.Const
		if !sys.ImpliesLast() {
			return fmt.Errorf("treaty: H1 violated: local treaties do not imply the global treaty")
		}
	}
	return nil
}

// AdaptiveConfig is the slack-splitting configuration: for each inequality
// clause, the slack between the current state and the treaty boundary is
// split across sites proportionally to the given per-site demand weights
// (observed burn rates since the last negotiation round), so a site
// consuming most of a unit's slack receives most of the next round's budget
// and skewed or drifting workloads renegotiate less often. Without a
// positive weight — nil, short or all-zero vectors — every site weighs the
// same: the equal split, the hand-crafted demarcation-style configuration
// the paper uses as its OPT baseline (Section 6.1), optimal for uniform
// workloads. Equality clauses are pinned as in DefaultConfig.
//
// Validity does not depend on the weights: every share is non-negative
// and the shares sum to at most the slack, so H2 (each local treaty holds
// on D) and H1 (the locals imply the global) hold for any weight vector.
func (t *Template) AdaptiveConfig(db lang.Database, weights []int64) Config {
	w := make([]int64, t.NSites)
	total := int64(0)
	for site := range w {
		if site < len(weights) && weights[site] > 0 {
			w[site] = weights[site]
			total += w[site]
		}
	}
	if total == 0 {
		for site := range w {
			w[site] = 1
		}
		total = int64(t.NSites)
	}
	// The remainder of a proportional split goes out one unit at a time in
	// descending-weight order (ties by site index), so the split is
	// deterministic and sums exactly to the slack.
	order := make([]int, t.NSites)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	shares := make([]int64, t.NSites)
	cfg := make(Config)
	for _, tc := range t.Clauses {
		n := -tc.Global.Term.Const
		switch tc.Global.Op {
		case lia.EQ:
			for _, sc := range tc.Sites {
				cfg[sc.Config] = n - sc.localSum(db)
			}
		case lia.LE:
			sum := int64(0)
			for _, sc := range tc.Sites {
				sum += sc.localSum(db)
			}
			slack := n - sum
			if slack < 0 {
				slack = 0
			}
			given := int64(0)
			for site := range shares {
				shares[site] = slack * w[site] / total
				given += shares[site]
			}
			for rem := slack - given; rem > 0; rem-- {
				shares[order[int(slack-given-rem)%t.NSites]]++
			}
			for i, sc := range tc.Sites {
				cfg[sc.Config] = n - sc.localSum(db) - shares[i]
			}
		}
	}
	return cfg
}

// Rename returns a copy of the global treaty with every object variable
// renamed through f. Workloads with many independent, identically-shaped
// units (e.g. one stock quantity per item) analyze a single canonical unit
// and rename the resulting treaty per concrete item — the parameterized
// compression of Section 5.1.
func (g Global) Rename(f func(lang.ObjID) lang.ObjID) Global {
	out := Global{Constraints: make([]lia.Constraint, len(g.Constraints))}
	for i, c := range g.Constraints {
		nc := lia.Constraint{Term: lia.NewTerm(), Op: c.Op}
		nc.Term.Const = c.Term.Const
		//homeo:nondet map-to-map rebuild; the renamed term is a map, order invisible
		for v, coeff := range c.Term.Coeffs {
			if v.Kind == logic.ObjVar {
				nc.Term.AddVar(logic.Obj(f(lang.ObjID(v.Name))), coeff)
			} else {
				nc.Term.AddVar(v, coeff)
			}
		}
		out.Constraints[i] = nc
	}
	return out
}

// relaxIntoSlack lowers configuration values to consume any slack left in
// the H1 budget of each inequality clause (sum_k c_k >= (K-1)*n), sharing
// it equally among sites. Lowering c_k loosens site k's local treaty and
// cannot break upper-bound constraints, so the result remains valid and
// strictly dominates the input configuration.
func (t *Template) relaxIntoSlack(cfg Config) {
	for _, tc := range t.Clauses {
		if tc.Global.Op != lia.LE {
			continue
		}
		n := -tc.Global.Term.Const
		k := int64(t.NSites)
		sum := int64(0)
		for _, sc := range tc.Sites {
			sum += cfg[sc.Config]
		}
		excess := sum - (k-1)*n
		if excess <= 0 {
			continue
		}
		share := excess / k
		rem := excess - share*k
		for i, sc := range tc.Sites {
			extra := int64(0)
			if int64(i) < rem {
				extra = 1
			}
			cfg[sc.Config] -= share + extra
		}
	}
}
