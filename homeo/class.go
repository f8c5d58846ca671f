package homeo

import (
	"fmt"
	"sort"

	"repro/internal/lang"
	"repro/internal/sqlfront"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// ClassSpec describes a transaction class to register. Exactly one of L
// or SQL must be set.
type ClassSpec struct {
	// Name identifies the class. Optional for L classes (defaults to the
	// transaction's declared name, which must match when both are set);
	// required for SQL classes.
	Name string
	// L is L/L++ source containing exactly one transaction.
	L string
	// SQL is a sqlfront script: CREATE TABLE statements followed by DML,
	// compiled into one transaction (parameters are the @names).
	SQL string
	// Bounds declares inclusive parameter ranges. Parameters that reach
	// branch guards need bounds for the analysis to derive a real treaty;
	// without them the class still runs correctly but synchronizes on
	// every write (pin treaties).
	Bounds map[string][2]int64
	// Initial gives starting logical values for objects the class touches
	// (L classes; absent objects start at zero).
	Initial map[string]int64
	// Rows preloads relational rows for SQL classes, keyed by table name;
	// each row lists the column values in declaration order (the key
	// column must be nonzero — zero marks free slots).
	Rows map[string][][]int64
}

// TxnClass is a registered transaction class: the handle submissions
// name. Its treaties were generated online at registration and are
// renegotiated by the protocol's cleanup phase like any built-in unit.
type TxnClass struct {
	c  *Cluster
	wc *workload.Class
}

// Register compiles, analyzes, and installs a transaction class on the
// running cluster: parse (L or SQL), lower, replica-rewrite, build the
// symbolic table, derive the unit treaty from the current consolidated
// state, and install initial values at every site. The registration is
// atomic with respect to in-flight transactions.
//
// Classes whose guards resist analysis (unbounded parameters, oversized
// tables) are still accepted: they degrade to pin treaties, meaning every
// write synchronizes — always correct, just not coordination-free. Check
// TxnClass.Pinned.
func (c *Cluster) Register(spec ClassSpec) (*TxnClass, error) {
	var t [1]*TxnClass
	if err := c.register([]ClassSpec{spec}, t[:]); err != nil {
		return nil, err
	}
	return t[0], nil
}

// RegisterBatch registers several classes as one atomic installation:
// every class compiles (sharing analysis artifacts with already-cached
// isomorphic families and with each other), then all of them install
// under a single execution-right critical section — one registry pass,
// one unit-installation sweep — instead of paying the per-registration
// setup once per class. Either every class registers or none does.
func (c *Cluster) RegisterBatch(specs []ClassSpec) ([]*TxnClass, error) {
	ts := make([]*TxnClass, len(specs))
	if err := c.register(specs, ts); err != nil {
		return nil, err
	}
	return ts, nil
}

// compiledClass is one class of a registration between its compilation
// and its installation.
type compiledClass struct {
	wc      *workload.Class
	hit     bool
	initial lang.Database
}

// register compiles specs and installs them all or none, filling ts, which
// has their length. It keeps nothing of a spec but its strings: the maps
// are copied, so a caller may reuse them.
func (c *Cluster) register(specs []ClassSpec, ts []*TxnClass) error {
	if c.Draining() {
		return fmt.Errorf("%w: cluster is draining", ErrDropped)
	}
	if len(specs) == 0 {
		return fmt.Errorf("homeo: RegisterBatch needs at least one class")
	}
	// Compile and validate everything outside the lock; cache hits and
	// misses are recorded under it, next to the installation. A single
	// registration, the usual call, needs no list of its own.
	var one [1]compiledClass
	classes := one[:0]
	if len(specs) > 1 {
		classes = make([]compiledClass, 0, len(specs))
	}
	for _, spec := range specs {
		if (spec.L == "") == (spec.SQL == "") {
			return fmt.Errorf("homeo: ClassSpec needs exactly one of L or SQL source")
		}
		var bounds treaty.ParamBounds
		if len(spec.Bounds) > 0 {
			bounds = make(treaty.ParamBounds, len(spec.Bounds))
			for p, b := range spec.Bounds {
				bounds[p] = b
			}
		}
		var (
			wc  *workload.Class
			hit bool
			err error
		)
		if spec.L != "" {
			wc, hit, err = c.artifacts.CompileL(spec.L, c.opts.Sites, bounds)
			if err == nil && spec.Name != "" && spec.Name != wc.Name {
				err = fmt.Errorf("homeo: spec name %q does not match transaction name %q", spec.Name, wc.Name)
			}
		} else {
			wc, hit, err = c.artifacts.CompileSQL(spec.Name, spec.SQL, c.opts.Sites, bounds)
		}
		if err != nil {
			return err
		}
		initial, err := buildInitial(wc, spec)
		if err != nil {
			return err
		}
		classes = append(classes, compiledClass{wc, hit, initial})
	}
	// One sweep installs every new unit's initial values and treaties, so a
	// batch merges what its classes install.
	install := classes[0].initial
	if len(classes) > 1 {
		install = lang.Database{}
		for _, cc := range classes {
			for obj, v := range cc.initial {
				install[obj] = v
			}
		}
	}

	// Installation mutates shared protocol state: registry bookkeeping,
	// per-site stores, and the new units' treaties. Run it under the
	// execution right so it is atomic for in-flight transactions. c.mu
	// additionally serializes concurrent registrations on RuntimeLive
	// (locked() uses c.mu itself on RuntimeSim).
	if c.live != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	var regErr error
	c.locked(func() {
		// Check the whole batch before registering any of it: a registered
		// class publishes governing sets that submissions read without a
		// lock, so a batch the registry refuses must publish none — a
		// submission reading one in the meantime would name a unit that
		// never gets installed.
		for i, cc := range classes {
			if regErr = c.reg.Check(cc.wc, cc.initial); regErr != nil {
				return
			}
			for _, prev := range classes[:i] {
				if prev.wc.Name == cc.wc.Name {
					regErr = fmt.Errorf("%w: %s already registered", workload.ErrDuplicateClass, cc.wc.Name)
					return
				}
			}
		}
		registered := 0
		for _, cc := range classes {
			if regErr = c.reg.Register(cc.wc, cc.initial); regErr != nil {
				break
			}
			registered++
		}
		if regErr == nil {
			// AddUnits covers all units the registry gained.
			regErr = c.sys.AddUnits(install)
		}
		if regErr != nil {
			// Roll the classes back out (reverse order: Unregister pops the
			// most recent) so the registry and the system's unit table stay
			// aligned.
			for i := registered - 1; i >= 0; i-- {
				if uerr := c.reg.Unregister(classes[i].wc); uerr != nil {
					regErr = fmt.Errorf("%w (rollback failed: %v)", regErr, uerr)
					break
				}
			}
			return
		}
		for _, cc := range classes {
			c.sys.Col.RecordAnalysisCache(cc.hit)
		}
	})
	if regErr != nil {
		return regErr
	}
	for i, cc := range classes {
		ts[i] = &TxnClass{c: c, wc: cc.wc}
	}
	if c.live == nil {
		// classes map writes race with Class() readers only on live, where
		// c.mu is already held.
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	for _, t := range ts {
		c.classes[t.wc.Name] = t
	}
	return nil
}

// buildInitial assembles the install database from Initial values and SQL
// Rows.
func buildInitial(wc *workload.Class, spec ClassSpec) (lang.Database, error) {
	initial := lang.Database{}
	for obj, v := range spec.Initial {
		initial[lang.ObjID(obj)] = v
	}
	if len(spec.Rows) > 0 && wc.Schema == nil {
		return nil, fmt.Errorf("homeo: Rows given for non-SQL class %s", wc.Name)
	}
	for table, rows := range spec.Rows {
		tbl := wc.Schema[table]
		if tbl == nil {
			return nil, fmt.Errorf("homeo: class %s has no table %q", wc.Name, table)
		}
		if int64(len(rows)) > tbl.Size {
			return nil, fmt.Errorf("homeo: table %q holds %d rows, got %d", table, tbl.Size, len(rows))
		}
		for slot, row := range rows {
			if len(row) > 0 && row[0] == 0 {
				return nil, fmt.Errorf("homeo: table %q row %d: key column must be nonzero (zero marks free slots)", table, slot)
			}
			if err := sqlfront.LoadRow(initial, tbl, int64(slot), row...); err != nil {
				return nil, err
			}
		}
	}
	return initial, nil
}

// Class returns a registered class by name (nil when absent).
func (c *Cluster) Class(name string) *TxnClass {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.classes[name]
}

// Classes lists the registered class names, sorted.
func (c *Cluster) Classes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.classes))
	for name := range c.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Name returns the class name.
func (t *TxnClass) Name() string { return t.wc.Name }

// Params returns the class's parameter names in declaration order.
func (t *TxnClass) Params() []string { return append([]string(nil), t.wc.Params...) }

// Arity returns the number of arguments an invocation takes.
func (t *TxnClass) Arity() int { return len(t.wc.Params) }

// Objects returns the class's full object footprint (sorted), which is
// exactly the object set of its treaty unit.
func (t *TxnClass) Objects() []string {
	objs := t.wc.Footprint()
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = string(o)
	}
	return out
}

// Pinned reports whether the class fell back to pin treaties
// (synchronize on every write), and why.
func (t *TxnClass) Pinned() (bool, string) { return t.wc.Pinned() }

// SymbolicTable renders the class's symbolic table (Section 2), empty
// when analysis was skipped.
func (t *TxnClass) SymbolicTable() string { return t.wc.TableString() }

// Treaties renders the class unit's current per-site local treaties.
// They change whenever the cleanup phase renegotiates, so they are rendered
// under the execution right. The renderings are cut from one string, so
// however many sites there are they cost one allocation and the list
// another.
func (t *TxnClass) Treaties() []string {
	var out []string
	t.c.locked(func() {
		var textBuf [256]byte
		var endBuf [8]int
		text, ends := t.c.sys.AppendUnitTreaties(textBuf[:0], endBuf[:0], t.wc.Unit())
		if len(ends) == 0 {
			return
		}
		all, start := string(text), 0
		out = make([]string, len(ends))
		for i, end := range ends {
			out[i], start = all[start:end], end
		}
	})
	return out
}
