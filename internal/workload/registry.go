package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/lang"
	"repro/internal/treaty"
)

// ErrDuplicateClass marks a registration under a name already taken
// (classify with errors.Is; the wire layer maps it to 409 Conflict).
var ErrDuplicateClass = errors.New("workload: duplicate class")

// Registry hosts dynamically registered transaction classes on top of an
// optional base workload. It implements Workload: base units keep their
// ids, each registered class appends one unit covering its footprint, and
// requests for a class are governed by every registered unit that shares
// an object with it (so overlapping classes check each other's treaties
// before committing — the soundness condition for concurrent classes).
//
// Registration and request construction are not internally synchronized:
// callers invoke them under the runtime's execution contract (the public
// API serializes registration behind the scheduler lock on live
// runtimes), matching every other Workload implementation. Units alone
// may run concurrently with a registration.
type Registry struct {
	base      Workload
	nSites    int
	baseUnits int
	classes   []*Class
	byName    map[string]*Class
	// objUnits indexes registered units by footprint object; base units
	// are not indexed (base overlap is rejected at registration).
	objUnits map[lang.ObjID][]int
	// baseObjs is every object the base workload owns (initial database
	// plus unit objects); class footprints must be disjoint from it.
	baseObjs map[lang.ObjID]bool
	// extra accumulates the initial values installed by registrations, so
	// InitialDB reflects them for serial replay.
	extra lang.Database
}

// NewRegistry wraps base (which may be nil for a cluster serving only
// registered classes) for nSites sites.
func NewRegistry(base Workload, nSites int) (*Registry, error) {
	if nSites <= 0 {
		return nil, fmt.Errorf("workload: registry needs a positive site count")
	}
	r := &Registry{
		base:     base,
		nSites:   nSites,
		byName:   make(map[string]*Class),
		objUnits: make(map[lang.ObjID][]int),
		baseObjs: make(map[lang.ObjID]bool),
		extra:    lang.Database{},
	}
	if base != nil {
		r.baseUnits = base.NumUnits()
		for obj := range base.InitialDB() {
			r.baseObjs[obj] = true
		}
		for u := 0; u < r.baseUnits; u++ {
			for _, obj := range base.UnitObjects(u) {
				r.baseObjs[obj] = true
			}
		}
	}
	return r, nil
}

// Register adds a compiled class. initial gives starting logical values
// for footprint objects (absent objects start at zero); the caller is
// responsible for installing them into a running system
// (homeostasis.System.AddUnits). The class is assigned the next unit id,
// and it and every class sharing an object with it get their new
// governing sets. It refuses exactly what Check refuses.
func (r *Registry) Register(c *Class, initial lang.Database) error {
	if err := r.Check(c, initial); err != nil {
		return err
	}
	c.unit = r.baseUnits + len(r.classes)
	r.classes = append(r.classes, c)
	r.byName[c.Name] = c
	// c's unit is the largest, so a class sharing an object with c keeps an
	// ascending set by appending it, into a fresh array: requests may hold
	// the old set.
	var shared []int
	for _, obj := range c.footprint {
		for _, u := range r.objUnits[obj] {
			d := r.classes[u-r.baseUnits]
			set := d.governing.Load().units
			if set[len(set)-1] == c.unit {
				continue // already reached through another shared object
			}
			d.governing.Store(&unitSet{units: append(slices.Clip(set), c.unit)})
			shared = append(shared, u)
		}
		r.objUnits[obj] = append(r.objUnits[obj], c.unit)
	}
	if shared == nil { // the usual class: its set is its own unit
		c.solo = unitSet{one: [1]int{c.unit}}
		c.solo.units = c.solo.one[:]
		c.governing.Store(&c.solo)
	} else {
		units := append(shared, c.unit)
		slices.Sort(units)
		c.governing.Store(&unitSet{units: units})
	}
	for obj, v := range initial {
		r.extra[obj] = v
	}
	return nil
}

// Check reports why Register would refuse c with initial, changing
// nothing. A batch checks every class before it registers any: Register
// publishes governing sets that submissions read without a lock, so a
// batch the registry refuses must be refused before any of it registers.
func (r *Registry) Check(c *Class, initial lang.Database) error {
	if c.nSites != r.nSites {
		return fmt.Errorf("workload: class %s compiled for %d sites, registry has %d", c.Name, c.nSites, r.nSites)
	}
	if _, dup := r.byName[c.Name]; dup {
		return fmt.Errorf("%w: %s already registered", ErrDuplicateClass, c.Name)
	}
	// A logged commit names its transaction and nothing more, so a class
	// may not share a name with one of the base workload's.
	if r.base != nil {
		if _, err := r.base.Rebuild(c.Name, nil); !errors.Is(err, ErrUnknownTxn) {
			return fmt.Errorf("%w: %s is a transaction of the %s workload", ErrDuplicateClass, c.Name, r.base.Name())
		}
	}
	for _, obj := range c.footprint {
		if r.baseObjs[obj] {
			return fmt.Errorf("workload: class %s touches %q, owned by the %s workload (base objects cannot be governed by registered classes)",
				c.Name, obj, r.base.Name())
		}
	}
	for obj := range initial {
		// Footprints are tiny (a handful of objects); a scan beats
		// building a set on every registration.
		inFoot := false
		for _, fo := range c.footprint {
			if fo == obj {
				inFoot = true
				break
			}
		}
		if !inFoot {
			return fmt.Errorf("workload: class %s: initial value for %q, which the class never touches", c.Name, obj)
		}
	}
	return nil
}

// Unregister removes the most recently registered class (the rollback
// path when installing its unit into the running system fails). It must
// only be called before any request for the class was built.
func (r *Registry) Unregister(c *Class) error {
	if len(r.classes) == 0 || r.classes[len(r.classes)-1] != c {
		return fmt.Errorf("workload: %s is not the most recently registered class", c.Name)
	}
	r.classes = r.classes[:len(r.classes)-1]
	delete(r.byName, c.Name)
	c.governing.Store(nil)
	for _, obj := range c.footprint {
		units := r.objUnits[obj]
		if len(units) > 0 && units[len(units)-1] == c.unit {
			units = units[:len(units)-1]
		}
		// Every class still sharing obj gets back its set from before c,
		// which ended in c's unit.
		for _, u := range units {
			d := r.classes[u-r.baseUnits]
			if set := d.governing.Load().units; set[len(set)-1] == c.unit {
				d.governing.Store(&unitSet{units: slices.Clone(set[:len(set)-1])})
			}
		}
		if len(units) == 0 {
			delete(r.objUnits, obj)
		} else {
			r.objUnits[obj] = units
		}
	}
	// Initial values stay in extra: the objects were already installed in
	// the stores when the rollback happens, and re-registering under the
	// same name re-validates them.
	return nil
}

// Class returns a registered class by name (nil when absent).
func (r *Registry) Class(name string) *Class { return r.byName[name] }

// CanDraw reports whether Next has anything to draw from (a base
// workload or at least one registered class). Callers on the serving
// path check it instead of letting Next panic.
func (r *Registry) CanDraw() bool { return r.base != nil || len(r.classes) > 0 }

// Request builds one invocation of a registered class, resolving the full
// unit set governing it at call time (its own unit plus every registered
// unit sharing a footprint object, so later-registered overlapping
// classes are checked too). The request borrows args, as Class.Invoke's
// does: hold them still while it runs.
func (r *Registry) Request(c *Class, args []int64) (Request, error) {
	if r.byName[c.Name] != c {
		return Request{}, fmt.Errorf("workload: class %s is not registered", c.Name)
	}
	return c.Invoke(r.Units(c), args)
}

// Rebuild implements Workload: a registered class by its name, and
// otherwise the base workload's transaction of that name.
func (r *Registry) Rebuild(name string, args []int64) (Request, error) {
	if c := r.byName[name]; c != nil {
		return r.Request(c, args)
	}
	if r.base == nil {
		return Request{}, fmt.Errorf("%w: no class %s is registered", ErrUnknownTxn, name)
	}
	return r.base.Rebuild(name, args)
}

// Units returns the ascending set of treaty units governing the class:
// its own and every registered unit sharing a footprint object with it.
// Registration maintains the set, so this is one atomic load; a caller
// racing a registration gets the set from just before it, exactly as a
// request built just before it would.
//
//homeo:hotpath
func (r *Registry) Units(c *Class) []int {
	if set := c.governing.Load(); set != nil {
		return set.units
	}
	return nil
}

// Name implements Workload.
func (r *Registry) Name() string {
	if r.base != nil {
		return r.base.Name()
	}
	return "custom"
}

// InitialDB implements Workload: the base initial database plus every
// registered class's initial values. Because registered objects are
// disjoint from base objects and were never written before their
// registration point, serially replaying the commit log against this
// database is equivalent to installing each class's values at its
// registration time.
func (r *Registry) InitialDB() lang.Database {
	db := lang.Database{}
	if r.base != nil {
		db = r.base.InitialDB()
	}
	for obj, v := range r.extra {
		db[obj] = v
	}
	return db
}

// NumUnits implements Workload.
func (r *Registry) NumUnits() int { return r.baseUnits + len(r.classes) }

// UnitObjects implements Workload.
func (r *Registry) UnitObjects(unit int) []lang.ObjID {
	if unit < r.baseUnits {
		return r.base.UnitObjects(unit)
	}
	return r.classes[unit-r.baseUnits].footprint
}

// BuildGlobal implements Workload.
func (r *Registry) BuildGlobal(unit int, folded lang.Database) (treaty.Global, error) {
	if unit < r.baseUnits {
		return r.base.BuildGlobal(unit, folded)
	}
	return r.classes[unit-r.baseUnits].buildGlobal(folded), nil
}

// SharedGlobal is BuildGlobal for a caller that only reads the treaty and
// can rename on the fly: g is the unit's global treaty once every object
// obj it mentions is read as ren[obj] — a delta object as the delta, at
// the same site, of its renamed base — and ren is nil when g needs no
// renaming. A class served by an isomorphism family gets the family's
// memoized treaty and its own positional name table, so asking costs a
// lookup where BuildGlobal copies and renames the whole treaty. Neither g
// nor ren may be modified, and g is good until the unit's next
// SharedGlobal: a class's pin treaty is rewritten in place.
func (r *Registry) SharedGlobal(unit int, folded lang.Database) (g treaty.Global, ren map[lang.ObjID]lang.ObjID, err error) {
	if unit < r.baseUnits {
		g, err = r.base.BuildGlobal(unit, folded)
		return g, nil, err
	}
	g, ren = r.classes[unit-r.baseUnits].sharedGlobal(folded)
	return g, ren, nil
}

// Model implements Workload.
func (r *Registry) Model(unit int) treaty.WorkloadModel {
	if unit < r.baseUnits {
		return r.base.Model(unit)
	}
	return classModel{c: r.classes[unit-r.baseUnits]}
}

// Next implements Workload: base workloads keep their request mix; a
// registry without a base draws a uniformly random registered class with
// arguments uniform in its declared bounds (the closed-loop driver path
// for pure-custom clusters).
func (r *Registry) Next(rng *rand.Rand, site int) Request {
	if r.base != nil {
		return r.base.Next(rng, site)
	}
	if len(r.classes) == 0 {
		panic("workload: registry has no base workload and no registered classes to draw from")
	}
	c := r.classes[rng.Intn(len(r.classes))]
	req, err := r.Request(c, c.appendRandArgs(nil, rng))
	if err != nil {
		panic(err) // unreachable: appendRandArgs matches the class's arity
	}
	return req
}
