package treaty

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/maxsat"
	"repro/internal/sat"
)

// WorkloadModel is the "model of the expected future transaction
// workload" Algorithm 1 samples from. Implementations simulate the effect
// of L sampled transactions starting from db and call visit on each
// database along the way (one per transactional write, D_1..D_L). db is not
// modified; the database handed to visit is the model's scratch, valid
// only until visit returns.
type WorkloadModel interface {
	SampleFuture(rng *rand.Rand, db lang.Database, l int, visit func(lang.Database))
}

// OptimizeOptions are Algorithm 1's tunable knobs.
type OptimizeOptions struct {
	// Lookahead is L, the length of each sampled future execution.
	Lookahead int
	// CostFactor is f, the number of futures to sample.
	CostFactor int
	// Rng drives the sampling; required.
	Rng *rand.Rand
	// MaxTheoryRounds bounds the lazy theory-refinement loop; past it the
	// optimizer finishes with a greedy feasible subset. Zero means
	// DefaultMaxTheoryRounds.
	MaxTheoryRounds int
	// Warm, when non-nil, marks this solve as a re-negotiation of a unit
	// that already holds a configuration. It is a hint, not a value
	// substitution: the optimizer skips the first MaxSAT round (which,
	// with no blocking clauses yet, always selects every soft constraint)
	// and attempts the all-softs theory check directly, falling back to
	// the full lazy loop on conflict. The returned configuration is
	// bit-identical to a cold solve with the same inputs and rng.
	Warm Config
}

// DefaultMaxTheoryRounds is the theory-refinement cap when
// OptimizeOptions.MaxTheoryRounds is zero. The golden experiment reports
// pin it: a different cap changes which configurations fall to the greedy
// subset.
const DefaultMaxTheoryRounds = 3

// OptimizeStats reports the optimizer's work, used by the Figure 24
// latency-breakdown experiment.
type OptimizeStats struct {
	// SoftTotal and SoftSatisfied count Algorithm 1 soft constraints
	// (after deduplication).
	SoftTotal     int
	SoftSatisfied int
	// MaxSATIterations counts SAT-solver invocations inside Fu-Malik
	// across all theory rounds.
	MaxSATIterations int
	// TheoryRounds counts lazy theory-refinement loops.
	TheoryRounds int
	// GreedyFallback is true when the theory-round cap was hit.
	GreedyFallback bool
	// WarmStart is true when a warm hint was supplied and the all-softs
	// fast path succeeded without entering the MaxSAT loop.
	WarmStart bool
	// WarmFallback is true when a warm hint was supplied but the fast
	// path hit a theory conflict, forcing the full lazy loop.
	WarmFallback bool
	// UsedDefault is true when optimization fell back to the Theorem 4.3
	// default configuration.
	UsedDefault bool
}

// Optimize implements Algorithm 1: sample f futures of length L from the
// workload model, turn each visited database into a soft constraint
// ("the local treaty templates hold on D_j"), and find a valid
// configuration maximizing the number of satisfied soft constraints.
//
// The search runs Fu-Malik MaxSAT over soft-constraint selectors, lazily
// refined with linear-arithmetic theory conflicts (minimal infeasible
// subsets become blocking clauses). Because implicit-hitting-set loops
// can need many refinements on adversarial instances, the loop is bounded
// and degrades to a greedy feasible subset that preserves validity.
//
// The returned configuration always satisfies H1 and H2 (worst case it is
// the Theorem 4.3 default), so the caller may install it unconditionally.
func Optimize(t *Template, db lang.Database, model WorkloadModel, opt OptimizeOptions) (Config, OptimizeStats) {
	s := solvers.Get().(*solver)
	defer solvers.Put(s)
	s.begin(t, db)
	maxRounds := opt.MaxTheoryRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxTheoryRounds
	}

	// Collect soft constraints from sampled futures, deduplicating
	// identical ones (futures often revisit the same states).
	visit := s.visit
	for i := 0; i < opt.CostFactor; i++ {
		model.SampleFuture(opt.Rng, db, opt.Lookahead, visit)
	}
	s.stats.SoftTotal = s.numSoft()
	if s.stats.SoftTotal == 0 {
		s.stats.UsedDefault = true
		return t.DefaultConfig(db), s.stats
	}

	// Lazy SMT loop: MaxSAT over selectors; check the selected set against
	// the linear theory; on conflict, block the minimal infeasible subset.
	var blocked [][]int

	// Warm start: with no blocking clauses, the first MaxSAT round is a
	// foregone conclusion — every selector is an independent unit soft
	// clause, so Fu-Malik selects all of them in one SAT call. When the
	// caller certifies a previous negotiation succeeded (Warm != nil),
	// skip that round and try the all-softs theory check directly. On
	// success this is bit-identical to the cold round-1 result; on
	// conflict, seed the blocking set with the same minimized core the
	// cold path would derive and rejoin the loop at round 2.
	if opt.Warm != nil {
		s.selected = s.selected[:0]
		for i := 0; i < s.numSoft(); i++ {
			s.selected = append(s.selected, i)
		}
		s.stats.TheoryRounds = 1
		if cfg, ok := s.finish(s.selected); ok {
			s.stats.WarmStart = true
			return cfg, s.stats
		}
		s.stats.WarmFallback = true
		blocked = append(blocked, s.minimizeConflict(s.selected))
	}

	for s.stats.TheoryRounds < maxRounds {
		s.stats.TheoryRounds++
		p := &s.problem
		p.Reset()
		for i := 0; i < s.numSoft(); i++ {
			p.AddSoft(sat.Lit(p.NewVar())) // soft constraint i is selector variable i+1
		}
		for _, set := range blocked {
			s.clause = s.clause[:0]
			for _, idx := range set {
				s.clause = append(s.clause, sat.Lit(-(idx + 1)))
			}
			p.AddHard(s.clause...)
		}
		res := s.maxsat.Solve(p)
		s.stats.MaxSATIterations += res.Iterations
		if !res.Feasible {
			break
		}
		s.selected = s.selected[:0]
		for i := 0; i < s.numSoft(); i++ {
			if res.Model[i+1] {
				s.selected = append(s.selected, i)
			}
		}
		if cfg, ok := s.finish(s.selected); ok {
			return cfg, s.stats
		}
		if len(s.selected) == 0 {
			break
		}
		blocked = append(blocked, s.minimizeConflict(s.selected))
	}

	// Greedy fallback: add soft constraints one at a time, keeping the
	// running set feasible. Linear in the number of softs and always
	// terminates with a valid configuration.
	s.stats.GreedyFallback = true
	kept := s.selected[:0]
	for i := 0; i < s.numSoft(); i++ {
		kept = append(kept, i)
		if _, ok := s.solve(kept, -1); !ok {
			kept = kept[:len(kept)-1]
		}
	}
	s.selected = kept
	if cfg, ok := s.finish(kept); ok {
		return cfg, s.stats
	}
	s.stats.UsedDefault = true
	return t.DefaultConfig(db), s.stats
}

// solver is the scratch of one Optimize (or Validate) call: the linear
// system, the sampled soft constraints and the MaxSAT instance all live in
// storage that outlasts the call, so a solve allocates little beyond the
// configuration it returns.
type solver struct {
	t     *Template
	db    lang.Database
	stats OptimizeStats

	// hard holds the validity rows over the template's configuration
	// table (see begin); sys is the system of the trial at hand, which
	// starts from a copy of them, or of a validation.
	hard, sys lia.System

	// A soft constraint is "all local treaty templates hold on a sampled
	// future database D_j": c_k <= n - S_k(D_j) for each inequality clause
	// and site, which bounds lists. Only the constants differ between two
	// soft constraints, so soft keeps len(bounds) of them per distinct one.
	// Equality clauses are already pinned by the hard rows and contribute
	// nothing soft.
	bounds []softBound
	soft   []int64
	key    []byte
	seen   map[string]struct{}

	selected []int
	clause   []sat.Lit
	problem  maxsat.Problem
	maxsat   maxsat.Solver
}

// softBound is the site clause one bound of a soft constraint is about,
// and its clause's n.
type softBound struct {
	sc *SiteClause
	n  int64
}

// solvers recycles solver scratch across calls.
var solvers = sync.Pool{New: func() any { return &solver{seen: make(map[string]struct{})} }}

// begin points the scratch at one solve's template and database and
// derives the rows over configuration variables that make a configuration
// valid (requirement H1: the conjunction of local treaties must imply the
// global treaty):
//
//   - inequality clause with bound n: sum_k c_k >= (K-1) * n
//   - equality clause: each c_k is pinned to n - S_k(D)
//
// plus requirement H2 (each local treaty holds on the current database D):
// c_k <= n - S_k(D) for inequalities.
func (s *solver) begin(t *Template, db lang.Database) {
	s.t, s.db, s.stats = t, db, OptimizeStats{}
	s.bounds, s.soft = s.bounds[:0], s.soft[:0]
	clear(s.seen)
	s.hard.Reset(t.configVars)
	nv := len(t.configVars)
	for j := range t.Clauses {
		tc := &t.Clauses[j]
		n := -tc.Global.Term.Const
		if tc.Global.Op == lia.LE {
			// H1: (K-1)*n - sum_k c_k <= 0.
			h1 := s.hard.AddRow(lia.LE)
			h1[nv] = (int64(t.NSites) - 1) * n
			for k := range tc.Sites {
				h1[tc.Sites[k].col] = -1
				s.bounds = append(s.bounds, softBound{&tc.Sites[k], n})
			}
		}
		// H2 per site, c_k - (n - S_k(D)) <= 0, or the equality's pin.
		for k := range tc.Sites {
			row := s.hard.AddRow(tc.Global.Op)
			row[tc.Sites[k].col] = 1
			row[nv] = tc.Sites[k].localSum(db) - n
		}
	}
}

// numSoft is the number of distinct soft constraints sampled so far.
func (s *solver) numSoft() int { return len(s.soft) / max(len(s.bounds), 1) }

// visit records the soft constraint of one sampled database unless an
// identical one is already there.
//
//homeo:hotpath
func (s *solver) visit(dj lang.Database) {
	base := len(s.soft)
	for _, b := range s.bounds {
		s.soft = append(s.soft, b.sc.localSum(dj)-b.n)
	}
	s.key = softKey(s.key[:0], s.soft[base:])
	if _, dup := s.seen[string(s.key)]; dup || len(s.key) == 0 {
		s.soft = s.soft[:base]
		return
	}
	s.seen[string(s.key)] = struct{}{}
}

// softKey appends the key soft constraints are deduplicated by. Within one
// solve the variables, coefficients and relations of a soft constraint are
// fixed by the template, so its constants identify it exactly.
//
//homeo:hotpath
func softKey(key []byte, consts []int64) []byte {
	for _, c := range consts {
		key = binary.LittleEndian.AppendUint64(key, uint64(c))
	}
	return key
}

// solve looks for a model of the hard rows and the soft constraints idxs
// (leaving out position skip, if not negative).
func (s *solver) solve(idxs []int, skip int) ([]int64, bool) {
	nv := len(s.t.configVars)
	s.sys.Set(&s.hard)
	for pos, idx := range idxs {
		if pos == skip {
			continue
		}
		for i, b := range s.bounds {
			row := s.sys.AddRow(lia.LE)
			row[b.sc.col], row[nv] = 1, s.soft[idx*len(s.bounds)+i]
		}
	}
	s.sys.TightenBounds()
	return s.sys.SolveModel()
}

// finish turns a selection into its configuration, if it has one.
func (s *solver) finish(selected []int) (Config, bool) {
	vals, ok := s.solve(selected, -1)
	if !ok {
		return nil, false
	}
	t := s.t
	cfg := make(Config, len(vals))
	for i, v := range t.configVars {
		cfg[v] = vals[i]
	}
	// Redistribute unused H1 slack: lowering a configuration value only
	// loosens that site's local treaty and cannot violate the selected
	// soft constraints or H2 (both are upper bounds), so handing out
	// the leftover budget equally strictly lengthens expected rounds.
	t.relaxIntoSlack(cfg)
	if err := t.validate(&s.sys, cfg, s.db); err != nil {
		return nil, false
	}
	s.stats.SoftSatisfied = len(selected)
	return cfg, true
}

// minimizeConflict returns a small (not necessarily minimal) subset of
// the selected soft constraints that is infeasible together with the hard
// constraints, via bounded greedy deletion: after the work cap, whatever
// remains is returned — still a valid (if weaker) blocking set.
func (s *solver) minimizeConflict(selected []int) []int {
	const maxDeletionChecks = 48
	core := slices.Clone(selected)
	checks := 0
	for i := 0; i < len(core) && checks < maxDeletionChecks; {
		checks++
		if _, ok := s.solve(core, i); !ok {
			core = slices.Delete(core, i, i+1)
		} else {
			i++
		}
	}
	return core
}
