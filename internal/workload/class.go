package workload

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/sqlfront"
	"repro/internal/symtab"
	"repro/internal/treaty"
)

// maxTableRows bounds the symbolic table of a registered class. Guards
// over many independent objects multiply rows; past this bound the class
// is served with pin treaties (always synchronize on write) instead of a
// derived treaty — correct, just without coordination-free commits.
const maxTableRows = 4096

// Class is a transaction class registered at runtime: an L (or lowered
// L++/SQL) transaction analyzed through the same pipeline the built-in
// workloads use at compile time — replica rewrite (Appendix B), symbolic
// table (Section 2), guard preprocessing into a treaty (Appendix C.1).
// One Class owns one treaty unit covering its whole object footprint.
//
// When any stage of the analysis does not apply (unbounded parameters in
// the guard, a table past maxTableRows, preprocessing failure), the class
// degrades to pin treaties: every object is held at its consolidated
// value, so every write triggers a synchronization round whose cleanup
// phase runs the transaction on the folded state. That path is always
// observationally correct; the analysis, when it succeeds, is what makes
// commits coordination-free.
type Class struct {
	// Name identifies the class (Request.Name of its invocations).
	Name string
	// Params are the transaction's parameters in declaration order.
	Params []string
	// Bounds are the declared inclusive parameter ranges used to
	// strengthen parameterized guards (treaty.ParamBounds).
	Bounds treaty.ParamBounds
	// Source is the transaction as registered (before lowering).
	Source *lang.Transaction
	// Lowered is the pure-L form executed and replayed.
	Lowered *lang.Transaction
	// Schema is the relational schema for SQL-registered classes (nil
	// otherwise).
	Schema sqlfront.Schema

	nSites    int
	footprint []lang.ObjID // sorted read ∪ write set = the unit's objects
	table     *symtab.Table
	rwBySite  []*lang.Transaction
	repArgs   []int64 // representative argument vector for row matching
	pinned    bool    // analysis fallback: pin treaties only
	pinReason string
	// pin is the class's pin treaty (treaty.PinGlobal over the footprint at
	// nSites), built the first time sharedGlobal pins and rewritten in place
	// after (treaty.RepinGlobal): only its constants move. The deriver of
	// the one System the class is registered with reads it under the
	// execution right, without a park point, so a pinning round builds no
	// treaty.
	pin treaty.Global

	unit int // assigned by the Registry

	// governing is the ascending set of treaty units an invocation must
	// check: the class's own and every registered unit sharing an object
	// with it. Registry.Register and Unregister — the only events that
	// change it — publish a fresh set under the execution right, never
	// rewriting one a request may hold; Registry.Units reads it without a
	// lock. Nil while the class is not registered. solo holds the set of a
	// class that shares no object — the usual case — so publishing that
	// one allocates nothing.
	governing atomic.Pointer[unitSet]
	solo      unitSet

	// fam links the class to its isomorphism family (ArtifactCache.Compile
	// builds every class). canonObjs is the class's own object footprint in
	// canonical first-occurrence order; fromRep maps the representative's
	// objects onto this class's (nil for the representative itself). rwMu
	// guards the lazy construction of rwBySite for family members, which
	// defer the per-site replica rewrites until the workload model first
	// samples.
	fam       *classFamily
	canonObjs []lang.ObjID
	fromRep   map[lang.ObjID]lang.ObjID
	rwMu      sync.Mutex

	// envs is a free-list of pooled execution environments. Guarded by the
	// runtime's execution contract (exec only runs while holding the
	// execution right); entries checked out survive park points because
	// each executing proc owns its own classEnv.
	envs []*classEnv

	// execFn is exec as a func value, bound once so that building a
	// request allocates no closure.
	execFn func(SiteView, []int64) error
}

// unitSet is a published governing set; one backs units when the set is
// the class's own unit alone.
type unitSet struct {
	units []int
	one   [1]int
}

// newClass analyzes the first member of a family: lowered is txn's pure-L
// form, built and validated by ArtifactCache.Compile, the one caller.
func newClass(txn, lowered *lang.Transaction, nSites int, bounds treaty.ParamBounds) (*Class, error) {
	foot, writes := lang.Footprint(lowered.Body, nil)
	maps.Copy(foot, writes)
	if len(foot) == 0 {
		return nil, fmt.Errorf("workload: class %s touches no database objects", txn.Name)
	}
	for obj := range foot {
		if base, site, ok := lang.IsDeltaObj(obj); ok {
			return nil, fmt.Errorf("workload: class %s: object %q collides with the delta encoding (%s@site%d)",
				txn.Name, obj, base, site)
		}
	}
	c := &Class{
		Name:      txn.Name,
		Params:    append([]string(nil), txn.Params...),
		Bounds:    bounds,
		Source:    txn,
		Lowered:   lowered,
		nSites:    nSites,
		footprint: sortedObjs(foot),
	}
	// Representative arguments: the lower bound when declared, zero
	// otherwise. Used to match a symbolic-table row before strengthening
	// over the whole range.
	c.repArgs = make([]int64, len(c.Params))
	for i, p := range c.Params {
		if b, ok := bounds[p]; ok {
			c.repArgs[i] = b[0]
		}
	}
	// Site 0's symbolic table drives treaty generation (guards range over
	// logical values, which are site-symmetric).
	table, err := symtab.Build(c.rw(0))
	switch {
	case err != nil:
		c.pinned = true
		c.pinReason = fmt.Sprintf("symbolic table: %v", err)
	case len(table.Rows) > maxTableRows:
		c.pinned = true
		c.pinReason = fmt.Sprintf("symbolic table has %d rows (> %d)", len(table.Rows), maxTableRows)
	default:
		c.table = table
	}
	c.execFn = c.exec
	return c, nil
}

// Unit returns the treaty unit assigned to the class at registration.
func (c *Class) Unit() int { return c.unit }

// Footprint returns the class's full object footprint (the unit's
// objects), sorted.
func (c *Class) Footprint() []lang.ObjID { return c.footprint }

// Pinned reports whether the class fell back to pin treaties, and why.
func (c *Class) Pinned() (bool, string) { return c.pinned, c.pinReason }

// TableString renders the class's symbolic table (empty when the class is
// pinned without analysis).
func (c *Class) TableString() string {
	if c.table == nil {
		return ""
	}
	return c.table.String()
}

// buildGlobal derives the unit's global treaty from the folded database
// restricted to the class's footprint, in the class's own namespace and
// owned by the caller.
func (c *Class) buildGlobal(folded lang.Database) treaty.Global {
	if g, ok := c.analysedGlobal(folded); ok {
		// Rename copies, so the family's memoized Global is never aliased.
		return g.Rename(c.mapFromRep)
	}
	return treaty.PinGlobal(c.footprint, c.nSites, folded)
}

// sharedGlobal is buildGlobal without the copy. Analysis failures at any
// stage fall back to the always-valid pin treaty, exactly like the TPC-C
// boundary regions. Otherwise the guard goes through the family's
// preprocessing memo: it is analyzed once per distinct folded-value
// vector in the representative's namespace, and g is that memoized
// treaty — read-only, and a member's own treaty only after renaming its
// objects through ren (nil for the representative itself; delta objects
// rename by their base). A pin treaty comes with a nil ren: it is already
// in the class's namespace, and is the class's own, which the next call
// rewrites.
func (c *Class) sharedGlobal(folded lang.Database) (g treaty.Global, ren map[lang.ObjID]lang.ObjID) {
	if g, ok := c.analysedGlobal(folded); ok {
		return g, c.fromRep
	}
	// The class is pinned, or its representative arguments sit in a boundary
	// region (or the guard cannot be strengthened over the declared ranges):
	// pin every footprint object, at the width the class was analysed for,
	// until the state moves on. Any write violates and enters the cleanup
	// phase, which runs the transaction on consolidated state.
	if c.pin.Constraints == nil {
		c.pin = treaty.PinGlobal(c.footprint, c.nSites, folded)
	} else {
		treaty.RepinGlobal(c.pin, c.footprint, folded)
	}
	return c.pin, nil
}

// analysedGlobal is the family's memoized global treaty at the folded
// values, in the representative's namespace, unless the class pins there.
func (c *Class) analysedGlobal(folded lang.Database) (treaty.Global, bool) {
	if c.pinned {
		return treaty.Global{}, false
	}
	e := c.familyGlobal(folded)
	return e.g, e.ok
}

// familyGlobal looks the folded values up in the family memo. On a miss
// they are translated into the representative's namespace (positionally,
// via the canonical object order), matched and preprocessed there exactly
// as the scratch path would, and the result — success or pin decision —
// is memoized for every member at those values.
func (c *Class) familyGlobal(folded lang.Database) famGlobal {
	rep := c.fam.rep
	var kbuf [64]byte
	kb := kbuf[:0]
	for _, obj := range c.canonObjs {
		kb = strconv.AppendInt(kb, folded.Get(obj), 10)
		kb = append(kb, ',')
	}
	c.fam.mu.Lock()
	e, ok := c.fam.globals[string(kb)] // no key is built for a lookup
	c.fam.mu.Unlock()
	if ok {
		return e
	}
	repFolded := folded
	if c.fromRep != nil {
		repFolded = make(lang.Database, len(c.canonObjs))
		for i, obj := range c.canonObjs {
			repFolded[rep.canonObjs[i]] = folded.Get(obj)
		}
	}
	params := make(map[string]int64, len(rep.Params))
	for i, p := range rep.Params {
		params[p] = rep.repArgs[i]
	}
	if row, err := rep.table.MatchRow(repFolded, params); err == nil {
		if g, perr := treaty.Preprocess(rep.table.Rows[row].Guard, repFolded, params, rep.Bounds); perr == nil {
			e = famGlobal{g: g, ok: true}
		}
	}
	c.fam.mu.Lock()
	if len(c.fam.globals) >= famGlobalBound {
		clear(c.fam.globals)
	}
	c.fam.globals[string(kb)] = e
	c.fam.mu.Unlock()
	return e
}

// mapFromRep renames one representative-namespace object (base or
// delta-encoded) into this class's namespace; the identity for the
// representative itself.
func (c *Class) mapFromRep(obj lang.ObjID) lang.ObjID {
	if c.fromRep == nil {
		return obj
	}
	if base, site, ok := lang.IsDeltaObj(obj); ok {
		if m, ok2 := c.fromRep[base]; ok2 {
			return lang.DeltaObj(m, site)
		}
		return obj
	}
	if m, ok := c.fromRep[obj]; ok {
		return m
	}
	return obj
}

// model samples futures for Algorithm 1 by replaying the class itself:
// random sites invoke the replica-rewritten transaction with arguments
// drawn uniformly from the declared bounds.
type classModel struct{ c *Class }

// SampleFuture implements treaty.WorkloadModel: every step runs in place
// on one copy of db, through one pooled environment and its folded view.
// A step that fails to evaluate leaves the database as it found it.
func (m classModel) SampleFuture(rng *rand.Rand, db lang.Database, l int, visit func(lang.Database)) {
	cur := db.Clone()
	ce := m.c.getEnv(nil)
	defer m.c.putEnv(ce)
	ce.v = &ce.folded
	var args []int64
	for i := 0; i < l; i++ {
		site := rng.Intn(m.c.nSites)
		args = m.c.appendRandArgs(args[:0], rng)
		ce.folded.reset(cur)
		clear(ce.env.Temps)
		ce.env.Log = ce.env.Log[:0]
		if err := lang.EvalIn(m.c.rw(site), &ce.env, args...); err != nil {
			ce.folded.rollback()
		}
		visit(cur)
	}
}

// rw returns the site-k replica rewrite, building every site's on first
// use: at analysis for a family's first member (its symbolic table needs
// site 0's form); for other members typically at the first
// workload-model sample of a negotiation, long after registration, and
// never at all while the deriver's memo keeps serving isomorphic units.
func (c *Class) rw(site int) *lang.Transaction {
	c.rwMu.Lock()
	defer c.rwMu.Unlock()
	if c.rwBySite == nil {
		replicated := make(map[lang.ObjID]bool, len(c.footprint))
		for _, obj := range c.footprint {
			replicated[obj] = true
		}
		c.rwBySite = make([]*lang.Transaction, c.nSites)
		for k := 0; k < c.nSites; k++ {
			c.rwBySite[k] = lang.Simplify(lang.ReplicaRewrite(c.Lowered, k, c.nSites, replicated))
		}
	}
	return c.rwBySite[site]
}

// appendRandArgs appends an argument vector drawn uniformly from the
// declared bounds (parameters without bounds use their representative
// value).
func (c *Class) appendRandArgs(args []int64, rng *rand.Rand) []int64 {
	for i, p := range c.Params {
		if b, ok := c.Bounds[p]; ok && b[1] > b[0] {
			args = append(args, b[0]+rng.Int63n(b[1]-b[0]+1))
		} else {
			args = append(args, c.repArgs[i])
		}
	}
	return args
}

// execAbort carries a SiteView error out of the evaluator, which has no
// error channel in its read/write hooks.
type execAbort struct{ err error }

// classEnv is a reusable execution environment: the lang.Env and its
// read/write hook closures are built once and recycled through the
// class's free-list, so the exec hot path allocates nothing. The hooks
// are bound to the classEnv and dispatch through its current view: the
// view exec was given, or the environment's own folded view while it
// samples futures.
type classEnv struct {
	v      SiteView
	env    lang.Env
	folded FoldedView
}

func (ce *classEnv) read(obj lang.ObjID) int64 {
	x, err := ce.v.ReadLogical(obj)
	if err != nil {
		panic(execAbort{err})
	}
	return x
}

func (ce *classEnv) write(obj lang.ObjID, val int64) {
	if err := ce.v.WriteLogical(obj, val); err != nil {
		panic(execAbort{err})
	}
}

// getEnv checks out a pooled environment targeting v. Params and Arrays
// are left as-is (EvalIn fully overwrites them for this class); Temps and
// the print log are cleared so no state leaks between invocations.
//
//homeo:checkout class.env
func (c *Class) getEnv(v SiteView) *classEnv {
	var ce *classEnv
	if n := len(c.envs); n > 0 {
		ce = c.envs[n-1]
		c.envs[n-1] = nil
		c.envs = c.envs[:n-1]
		clear(ce.env.Temps)
		ce.env.Log = ce.env.Log[:0]
	} else {
		ce = &classEnv{}
		ce.env.ReadFn = ce.read
		ce.env.WriteFn = ce.write
	}
	ce.v = v
	return ce
}

//homeo:release class.env
func (c *Class) putEnv(ce *classEnv) {
	ce.v = nil
	ce.folded.reset(nil)
	c.envs = append(c.envs, ce)
}

// exec runs the lowered transaction against a site view: every database
// read and write goes through the view's logical accessors (the delta
// encoding under homeostasis, direct access under 2PC/local), and the
// print log is forwarded after successful evaluation.
func (c *Class) exec(v SiteView, args []int64) (err error) {
	ce := c.getEnv(v)
	defer c.putEnv(ce)
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(execAbort)
			if !ok {
				panic(r)
			}
			err = a.err
		}
	}()
	if err := lang.EvalIn(c.Lowered, &ce.env, args...); err != nil {
		return err
	}
	for _, x := range ce.env.Log {
		v.Print(x)
	}
	return nil
}

// Invoke builds one invocation of the class. units is the full set of
// treaty units governing the request (the class's own unit plus any other
// registered unit sharing footprint objects), as Registry.Units reports
// it; Invoke itself touches no registry state, so a caller holding a
// current unit set needs no lock. It allocates nothing: the request
// borrows args, which the caller must hold still for as long as the
// request runs (what outlives it — the commit log, the WAL, a peer
// message — keeps its own copy).
func (c *Class) Invoke(units []int, args []int64) (Request, error) {
	if len(args) != len(c.Params) {
		return Request{}, fmt.Errorf("workload: class %s expects %d args (%v), got %d",
			c.Name, len(c.Params), c.Params, len(args))
	}
	return Request{
		Name:    c.Name,
		Args:    args,
		Units:   units,
		Objects: c.footprint,
		Exec:    c.execFn,
	}, nil
}

func sortedObjs(set map[lang.ObjID]bool) []lang.ObjID {
	out := make([]lang.ObjID, 0, len(set))
	for obj := range set {
		out = append(out, obj)
	}
	slices.Sort(out)
	return out
}
