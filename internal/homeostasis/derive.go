package homeostasis

import (
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// This file is the one door for treaty generation. The paper has one
// generator — the protocol initializer and the cleanup phase both run guard
// → templates → configuration (Sections 4 and 5.1) — and so does the
// engine: boot, class registration and every round, with or without a
// winner, derive a unit's local treaties through deriver.derive, in stages,
// each a function of what the stages before it produced:
//
//	global     the unit's global treaty on its folded values: the workload's
//	           guard analysis, or treaty.PinGlobal for a pin
//	widen      past the width the workload was analysed at, every site's
//	           delta takes its base object's coefficient
//	key        the treaty up to object renaming, with the folded values, the
//	           width once widened and the slack weights if any
//	memo       a key seen before serves its configuration and its locals
//	           under this unit's names; nothing below runs
//	template   the per-site split with configuration variables (Section 4.2)
//	configure  Algorithm 1, a slack split, or the Theorem 4.3 default
//	locals     the template instantiated site by site
//
// The deriver sees folded values, never a store, the fabric or a log:
// installing what it returns — and logging, and shipping it — is the
// caller's business.

// strategy is how a template is configured: what Options.Mode and
// Options.Alloc come to, resolved once at New.
type strategy int

const (
	// stratNone: the 2PC and local baselines carry no treaties.
	stratNone strategy = iota
	// stratModel runs the Algorithm 1 optimizer against the workload's
	// future model.
	stratModel
	// stratEqual splits each clause's slack equally (the OPT baseline).
	stratEqual
	// stratAdaptive splits it by the demand observed since the unit's last
	// round; the caller supplies the weights.
	stratAdaptive
	// stratPin is the Theorem 4.3 default: every site's local sum held where
	// it is (the optimizer ablation).
	stratPin
)

// resolveStrategy maps the option pair onto the strategy in force: an
// explicit Alloc wins, AllocDefault means the mode's own.
func resolveStrategy(m Mode, a Alloc) strategy {
	switch {
	case m == ModeTwoPC || m == ModeLocal:
		return stratNone
	case a == AllocModel, a == AllocDefault && m == ModeHomeo:
		return stratModel
	case a == AllocEqualSplit, a == AllocDefault && m == ModeOpt:
		return stratEqual
	case a == AllocAdaptive:
		return stratAdaptive
	}
	return stratPin
}

// memoBound caps the deriver's memo; past it the memo is cleared whole (a
// miss recomputes, so clearing costs time, and under stratModel draws from
// the optimizer stream that a hit would not have). No experiment report
// comes near it: over all 22 the largest memo of any cell holds 173 entries
// at bench scale, 606 at quick and 2 343 at full.
const memoBound = 65536

// deriver turns a unit's folded values into its per-site local treaties.
// It is used only under the runtime's execution right.
type deriver struct {
	w workload.Workload
	// shared is w's SharedGlobal when it has one: the optional capability
	// of a workload whose units' global treaties are renames of shared,
	// memoized ones (the class registry; see workload.Registry for the
	// contract). Nil otherwise.
	shared   func(unit int, folded lang.Database) (treaty.Global, map[lang.ObjID]lang.ObjID, error)
	strategy strategy
	// analysisWidth is the site count the workload analysed its classes at:
	// the width the cluster booted with. A wider cluster's treaties are
	// widened to it.
	analysisWidth int
	// lookahead (L) and costFactor (f) are Algorithm 1's knobs; rng is the
	// optimizer's stream and seed what a standalone derivation reseeds from.
	lookahead, costFactor int
	seed                  int64
	rng                   *rand.Rand
	// deltaName is lang.DeltaObj, interned by the owner.
	deltaName func(lang.ObjID, int) lang.ObjID
	col       *metrics.Collector

	// memo holds, per isomorphism class of (global treaty, folded values,
	// width, weights), the configuration and the locals the first unit of
	// the class was given. The optimizer's output depends only on that class —
	// configuration variables are positional — so one solve serves every
	// unit in it: the paper's parameterized compression (Section 5.1)
	// applied to configurations. This assumes isomorphic units also have
	// statistically identical workload models, which holds for every
	// built-in workload and for a class family.
	memo map[isoHash]memoEntry
	// solves counts configurations computed, hits those the memo served.
	solves, hits int64

	// idx, names and vars are the key stage's scratch: first-occurrence
	// variable indexing, the unit's names in that order (what a memo hit
	// instantiates under), one constraint's variables in canonical order.
	idx   map[string]int
	names []string
	vars  []isoVar
}

func newDeriver(w workload.Workload, opts Options, deltaName func(lang.ObjID, int) lang.ObjID, col *metrics.Collector) *deriver {
	d := &deriver{
		w:             w,
		strategy:      resolveStrategy(opts.Mode, opts.Alloc),
		analysisWidth: opts.Topo.NSites(),
		lookahead:     opts.Lookahead,
		costFactor:    opts.CostFactor,
		seed:          opts.Seed,
		rng:           rand.New(rand.NewSource(opts.Seed + 7919)),
		deltaName:     deltaName,
		col:           col,
		memo:          make(map[isoHash]memoEntry),
		idx:           make(map[string]int),
	}
	if s, ok := w.(interface {
		SharedGlobal(int, lang.Database) (treaty.Global, map[lang.ObjID]lang.ObjID, error)
	}); ok {
		d.shared = s.SharedGlobal
	}
	return d
}

// derivation is one request to the deriver.
type derivation struct {
	// u is the unit: its id, its objects, and the configuration its last
	// derivation produced (read as the warm-start hint, then replaced).
	u *unitState
	// folded holds the unit's objects at their consolidated values.
	folded lang.Database
	// width is the cluster's site count now.
	width int
	// weights, when set, splits every clause's slack in their proportion
	// whatever the strategy: the adaptive strategy's demand, the membership
	// overlay once a site has left.
	weights []int64
	// standalone makes the result a function of (seed, unit, folded values)
	// alone — a unit-seeded optimizer stream, the memo neither read nor
	// written — for a derivation every process of a cluster runs on its own
	// and must agree on.
	standalone bool
	// pin derives the always-valid fallback instead: PinGlobal under the
	// Theorem 4.3 default, so that every next write synchronizes.
	pin bool
}

// derive runs the stages.
func (d *deriver) derive(r derivation) ([]treaty.Local, error) {
	u := r.u
	if r.pin {
		locals, _, err := d.instantiate(treaty.PinGlobal(u.objects, r.width, r.folded), r)
		return locals, err
	}
	// Global. A workload that shares global treaties between isomorphic
	// units hands out the shared one with the unit's renaming: on a memo hit
	// — every steady-state round — the treaty is only hashed, never copied.
	var (
		g   treaty.Global
		ren map[lang.ObjID]lang.ObjID
		err error
	)
	if d.shared != nil {
		g, ren, err = d.shared(u.id, r.folded)
	} else {
		g, err = d.w.BuildGlobal(u.id, r.folded)
	}
	if err != nil {
		return nil, err
	}

	// Widen. Nothing at the analysis width, so a cluster that never grew
	// hashes and solves what it always did.
	widened := r.width > d.analysisWidth
	if widened {
		g, ren = d.materialise(g, ren), nil // a shared global is read-only
		widen(g, r.width)
	}

	// Key and memo. The weights are part of the class: units with
	// isomorphic treaties and the same (quantized) demand skew share one
	// allocation.
	var key isoHash
	if !r.standalone {
		key = d.key(g, ren, r.folded)
		if widened {
			key.mix(0x1d)
			key.mix(uint64(r.width))
		}
		if r.weights != nil {
			key.mix(0xa1)
			for _, w := range r.weights {
				key.mix(uint64(w))
			}
		}
		if e, ok := d.memo[key]; ok {
			d.hits++
			u.lastCfg = e.cfg
			return e.rename(d.names), nil
		}
	}

	// Template, configure, locals.
	if ren != nil {
		g = d.materialise(g, ren)
	}
	locals, cfg, err := d.instantiate(g, r)
	if err != nil {
		return nil, err
	}
	d.solves++
	u.lastCfg = cfg
	if !r.standalone {
		d.remember(key, cfg, locals)
	}
	return locals, nil
}

// instantiate is the last three stages on a global treaty in the unit's own
// names: template, configure, locals.
func (d *deriver) instantiate(g treaty.Global, r derivation) ([]treaty.Local, treaty.Config, error) {
	tmpl, err := treaty.BuildTemplate(g, r.width, placement)
	if err != nil {
		return nil, nil, err
	}
	cfg := d.configure(tmpl, r)
	locals, err := tmpl.LocalTreaties(cfg)
	return locals, cfg, err
}

// configure picks the template's configuration on the folded values.
func (d *deriver) configure(tmpl *treaty.Template, r derivation) treaty.Config {
	switch {
	case r.pin:
	case r.weights != nil, d.strategy == stratEqual, d.strategy == stratAdaptive:
		return tmpl.AdaptiveConfig(r.folded, r.weights)
	case d.strategy == stratModel:
		rng := d.rng
		if r.standalone {
			rng = rand.New(rand.NewSource(d.seed*1_000_033 + int64(r.u.id)))
		}
		// The warm hint never changes the result (see
		// treaty.OptimizeOptions.Warm): it skips the foregone first MaxSAT
		// round, and the outcome counters feed the stats surface.
		cfg, st := treaty.Optimize(tmpl, r.folded, d.w.Model(r.u.id), treaty.OptimizeOptions{
			Lookahead:  d.lookahead,
			CostFactor: d.costFactor,
			Rng:        rng,
			Warm:       r.u.lastCfg,
		})
		d.col.RecordSolverWarm(st.WarmStart, st.WarmFallback)
		return cfg
	}
	return tmpl.DefaultConfig(r.folded)
}

// widen gives each base object a constraint mentions the same coefficient
// on every site's delta up to width, in place. A guard bounds logical
// values, base + Σ_k delta_k over the sites there are; the analysis wrote
// that sum out for the sites there were, so a delta always carries its base
// object's coefficient and a site that joined since has no term at all —
// its local treaty would be a ground constraint and its writes unchecked.
// At the analysis width this changes nothing.
func widen(g treaty.Global, width int) {
	var bases []logic.Var
	for _, c := range g.Constraints {
		bases = bases[:0]
		//homeo:nondet collects a set; each base's deltas are set independently below
		for v := range c.Term.Coeffs {
			if _, _, delta := lang.IsDeltaObj(lang.ObjID(v.Name)); v.Kind == logic.ObjVar && !delta {
				bases = append(bases, v)
			}
		}
		for _, v := range bases {
			for k := 0; k < width; k++ {
				c.Term.Coeffs[logic.Obj(lang.DeltaObj(lang.ObjID(v.Name), k))] = c.Term.Coeffs[v]
			}
		}
	}
}

// localPin is the treaty a site can write for itself without a fold: its
// own delta of every object — and at site 0, where base objects are placed,
// the base too — held at the value vals reads (the Theorem 4.3 shape
// restricted to one site's partition). It holds on vals and any local write
// violates it, so the site's next write renegotiates a real generation.
func localPin(objs []lang.ObjID, site int, vals treaty.ObjReader) treaty.Local {
	l := treaty.Local{Site: site}
	hold := func(obj lang.ObjID) {
		l.Constraints = append(l.Constraints, treaty.Constraint{
			Terms: []treaty.Term{{Obj: obj, Coeff: 1}}, Const: -vals.Get(obj), Op: lia.EQ,
		})
	}
	for _, obj := range objs {
		if site == 0 {
			hold(obj)
		}
		hold(lang.DeltaObj(obj, site))
	}
	return l
}

// placement locates objects for template splitting: delta objects belong
// to their site; base (replicated) objects are assigned to site 0, which
// is sound because base objects only change at synchronization points.
func placement(obj lang.ObjID) int {
	if _, site, ok := lang.IsDeltaObj(obj); ok {
		return site
	}
	return 0
}

// isoHash is a 128-bit FNV-1a-style digest of a memo key. 128 bits keep
// the accidental-collision probability negligible (two distinct
// isomorphism classes hashing together would serve one class the other's
// configuration).
type isoHash [2]uint64

// fnv128OffsetHi/Lo is the FNV-128 offset basis.
const (
	fnv128OffsetHi = 0x6c62272e07bb0142
	fnv128OffsetLo = 0x62b821756295c58d
)

// mix absorbs one 64-bit word: XOR into the low half, then multiply the
// 128-bit state by the FNV-128 prime 2^88 + 0x13b (mod 2^128).
func (h *isoHash) mix(w uint64) {
	h[1] ^= w
	carry, lo := bits.Mul64(h[1], 0x13b)
	h[0] = h[0]*0x13b + carry + h[1]<<24
	h[1] = lo
}

// isoVar is one variable of the constraint the key stage is hashing, under
// the unit's own name.
type isoVar struct {
	v     logic.Var
	coeff int64
}

func compareIsoVars(a, b isoVar) int { return logic.CompareVars(a.v, b.v) }

// renamed is obj under the renaming a shared global treaty comes with
// (workload.Registry.SharedGlobal): base objects through ren, a delta
// object as the same site's delta of its renamed base — an interned name,
// so renaming allocates nothing.
func (d *deriver) renamed(ren map[lang.ObjID]lang.ObjID, obj lang.ObjID) lang.ObjID {
	if m, ok := ren[obj]; ok {
		return m
	}
	if base, site, ok := lang.IsDeltaObj(obj); ok {
		if m, ok := ren[base]; ok {
			return d.deltaName(m, site)
		}
	}
	return obj
}

// materialise copies g into the unit's own names.
func (d *deriver) materialise(g treaty.Global, ren map[lang.ObjID]lang.ObjID) treaty.Global {
	return g.Rename(func(obj lang.ObjID) lang.ObjID { return d.renamed(ren, obj) })
}

// key canonicalizes a (global treaty, folded database) pair up to object
// renaming: object names are replaced by first-occurrence indices, keeping
// coefficients, relations, placements, and folded values. Units with equal
// keys have isomorphic templates and receive identical configurations
// (configuration variable names are positional). The key is hashed — this
// runs on every renegotiation, and a string encoding dominated the memo-hit
// path's allocations; the index map, name list and variable buffer are
// scratch reused across calls.
//
// The treaty hashed is g with its objects renamed through ren (nil: as
// they are), visited exactly as the renamed copy's constraints would be —
// each constraint's variables in canonical order of their new names — so
// a shared global and a renamed copy of it hash alike, and d.names is left
// holding the unit's own names.
//
//homeo:hotpath
func (d *deriver) key(g treaty.Global, ren map[lang.ObjID]lang.ObjID, folded lang.Database) isoHash {
	h := isoHash{fnv128OffsetHi, fnv128OffsetLo}
	idx := d.idx
	clear(idx)
	names := d.names[:0]
	for _, c := range g.Constraints {
		h.mix(0xc1)
		h.mix(uint64(c.Op))
		h.mix(uint64(c.Term.Const))
		vars := d.vars[:0]
		//homeo:nondet the variables are sorted below; order invisible
		for v, coeff := range c.Term.Coeffs {
			if ren != nil && v.Kind == logic.ObjVar {
				v.Name = string(d.renamed(ren, lang.ObjID(v.Name)))
			}
			vars = append(vars, isoVar{v, coeff})
		}
		slices.SortFunc(vars, compareIsoVars)
		d.vars = vars
		for _, iv := range vars {
			i, ok := idx[iv.v.Name]
			if !ok {
				i = len(idx)
				idx[iv.v.Name] = i
				names = append(names, iv.v.Name)
			}
			h.mix(uint64(iv.coeff))
			h.mix(uint64(i))
			h.mix(uint64(placement(lang.ObjID(iv.v.Name))))
		}
	}
	h.mix(0xf0)
	for _, name := range names {
		h.mix(uint64(folded.Get(lang.ObjID(name))))
	}
	d.names = names
	return h
}

// memoEntry is one memo slot: the configuration of the first unit per key
// and the locals it was given — the installed ones, shared, since a Local
// is never written — with, per term in the order the locals list them, the
// object's index in the canonical (first-occurrence) variable order the
// key stage built. Instantiating the entry for an isomorphic unit is a
// positional rename into that unit's names — the template build and
// instantiation are skipped entirely. The width is part of the key once it
// moves, so every entry under a key has the caller's site count.
type memoEntry struct {
	cfg    treaty.Config
	locals []treaty.Local
	names  []int
}

// rename instantiates the entry under names, a unit's canonical variable
// order (d.names, valid since the last key call). The renamed terms need no
// sorting: the key hashes each constraint's variables in ascending order of
// the unit's own names, index by index, so two units meet under one key only
// if the rename between them keeps every constraint's order — and a site's
// terms are a subsequence of a constraint's. (treaty.Compile would refuse the
// install otherwise.) All sites' constraints share one slice and all terms
// another.
//
//homeo:hotpath
func (e *memoEntry) rename(names []string) []treaty.Local {
	nCons := 0
	for _, l := range e.locals {
		nCons += len(l.Constraints)
	}
	// The locals are installed: they outlive the round.
	out := make([]treaty.Local, len(e.locals))
	cons := make([]treaty.Constraint, 0, nCons)
	terms := make([]treaty.Term, 0, len(e.names))
	for site, l := range e.locals {
		start := len(cons)
		for _, c := range l.Constraints {
			from := len(terms)
			for _, t := range c.Terms {
				name := names[e.names[len(terms)]] // terms holds one per term visited
				terms = append(terms, treaty.Term{Obj: lang.ObjID(name), Coeff: t.Coeff})
			}
			c.Terms = terms[from:len(terms):len(terms)]
			cons = append(cons, c)
		}
		out[site] = treaty.Local{Site: l.Site, Constraints: cons[start:len(cons):len(cons)]}
	}
	return out
}

// remember memoizes freshly instantiated locals with their configuration,
// under the canonical variable order of the unit that built them (d.idx,
// valid since the last key call: the template's variables are among the
// ones the key stage indexed).
func (d *deriver) remember(key isoHash, cfg treaty.Config, locals []treaty.Local) {
	e := memoEntry{cfg: cfg, locals: locals}
	for _, l := range locals {
		for _, c := range l.Constraints {
			for _, t := range c.Terms {
				e.names = append(e.names, d.idx[string(t.Obj)])
			}
		}
	}
	if len(d.memo) >= memoBound {
		clear(d.memo)
	}
	d.memo[key] = e
}
