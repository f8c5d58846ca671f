// Package workload defines the interface between benchmark workloads
// (the Section 6.1 microbenchmark, Section 6.2 TPC-C) and the protocol
// runtimes: stored procedures executing against a site-local view, treaty
// units governing groups of objects, and the future-execution models
// Algorithm 1 samples.
package workload

import (
	"errors"
	"math/rand"

	"repro/internal/lang"
	"repro/internal/treaty"
)

// SiteView is what a stored procedure sees while executing. Under the
// homeostasis protocol, logical reads and writes of replicated objects go
// through the Appendix B delta encoding (base value plus the site's own
// delta object); under 2PC/local they access objects directly; on
// consolidated state (the cleanup phase's T', serial replay, sampled
// futures) they go to one database in place (FoldedView).
type SiteView interface {
	// ReadLogical returns the view's value of a replicated object's
	// logical value.
	ReadLogical(obj lang.ObjID) (int64, error)
	// WriteLogical updates the view's value of a replicated object's
	// logical value (a delta write under homeostasis).
	WriteLogical(obj lang.ObjID, v int64) error
	// Print appends to the transaction's observable log.
	Print(v int64)
}

// FoldedView is the SiteView over a consolidated database: reads and
// writes go straight to it, in place. It remembers what every write
// replaced, so an execution that fails half-way is taken back and leaves
// the database as it found it. The zero value is ready; one view serves
// one execution at a time and keeps its buffers for the next.
type FoldedView struct {
	db   lang.Database
	undo []undoWrite
	log  []int64
}

type undoWrite struct {
	obj lang.ObjID
	old int64
	had bool
}

// Run executes req's procedure on db, in place — the cleanup phase's T'
// and serial replay. On an error the database is left as it was and the
// log is nil: the execution had no effect. Otherwise the result is the
// print log, nil when empty and else the caller's own copy. A registered
// class's Exec borrows one of the class's pooled environments, so Run
// needs the runtime's execution right.
//
//homeo:hotpath
func (v *FoldedView) Run(db lang.Database, req Request) []int64 {
	v.reset(db)
	defer v.reset(nil)
	if err := req.Exec(v, req.Args); err != nil {
		v.rollback()
		return nil
	}
	if len(v.log) == 0 {
		return nil
	}
	return append([]int64(nil), v.log...)
}

// reset points the view at db with no writes and no prints recorded.
func (v *FoldedView) reset(db lang.Database) {
	v.db, v.undo, v.log = db, v.undo[:0], v.log[:0]
}

// ReadLogical implements SiteView.
func (v *FoldedView) ReadLogical(obj lang.ObjID) (int64, error) { return v.db[obj], nil }

// WriteLogical implements SiteView.
//
//homeo:hotpath
func (v *FoldedView) WriteLogical(obj lang.ObjID, val int64) error {
	old, had := v.db[obj]
	v.undo = append(v.undo, undoWrite{obj, old, had})
	v.db[obj] = val
	return nil
}

// Print implements SiteView.
func (v *FoldedView) Print(x int64) { v.log = append(v.log, x) }

// rollback undoes the recorded writes, newest first.
func (v *FoldedView) rollback() {
	for i := len(v.undo) - 1; i >= 0; i-- {
		if u := v.undo[i]; u.had {
			v.db[u.obj] = u.old
		} else {
			delete(v.db, u.obj)
		}
	}
}

// Request is one transaction invocation issued by a client.
type Request struct {
	// Name identifies the transaction type (for reporting).
	Name string
	// Args are the invocation's parameter values (for replay/logging),
	// possibly borrowed from the submitter (Class.Invoke): whatever keeps
	// them past the request copies them.
	Args []int64
	// Units lists the treaty units the transaction is governed by (empty
	// for transactions that never require synchronization, such as TPC-C
	// Payment; several for multi-item orders).
	Units []int
	// Objects is the transaction's full logical footprint: every object
	// Exec reads or writes, including objects outside the treaty units
	// (e.g. the unfulfilled-order count a New Order bumps). The cleanup
	// phase folds and consolidates exactly these objects before running
	// the transaction as T' on every site.
	Objects []lang.ObjID
	// Exec runs the stored procedure against a view — a site's, or a
	// FoldedView over consolidated state, where the cleanup phase runs it
	// as T' and serial replay runs it on the request Rebuild makes of each
	// logged commit. Errors indicate lock failures; the runtime aborts and
	// retries. A *lang.OverflowError is the transaction's own: the runtime
	// aborts the request.
	//
	// Exec takes the invocation's arguments (callers pass Args) instead of
	// closing over them, so a workload whose procedures are parameterized
	// binds the function once per class and a request costs no closure.
	// Workloads that draw everything when they build the request (micro,
	// TPC-C) ignore the parameter.
	Exec func(v SiteView, args []int64) error
}

// Rotor is the drift clock shared by the workload drift scenarios (micro
// hot-site rotation, TPC-C skewed-warehouse): it counts request draws and
// reports the current rotation epoch. Each workload instance owns its own
// rotor, and Next is only ever called under the runtime's execution right
// (or the serving handler's request lock), so no further synchronization
// is needed and sweeps stay deterministic.
type Rotor struct {
	period int
	calls  int
}

// NewRotor returns a rotor advancing one epoch every period draws; a
// non-positive period never rotates (epoch stays 0).
func NewRotor(period int) *Rotor { return &Rotor{period: period} }

// Tick counts one request draw and returns the epoch it falls in.
func (r *Rotor) Tick() int {
	if r.period <= 0 {
		return 0
	}
	epoch := r.calls / r.period
	r.calls++
	return epoch
}

// Workload supplies initial state, treaty units, and a request stream.
type Workload interface {
	// Name identifies the workload.
	Name() string
	// InitialDB returns the logical (pre-replication) database.
	InitialDB() lang.Database
	// NumUnits returns the number of treaty units (independence groups;
	// Section 5.1's factorized encoding).
	NumUnits() int
	// UnitObjects lists the logical objects governed by a unit.
	UnitObjects(unit int) []lang.ObjID
	// BuildGlobal derives the unit's global treaty from the current folded
	// database: it matches the joint symbolic table row and preprocesses
	// it into linear constraints (Sections 4.1, Appendix C.1).
	BuildGlobal(unit int, folded lang.Database) (treaty.Global, error)
	// Model returns the Algorithm 1 future-sampling model for a unit. The
	// databases it produces are in store shape (base objects plus per-site
	// delta objects).
	Model(unit int) treaty.WorkloadModel
	// Next draws the next request for a client at the given site.
	Next(rng *rand.Rand, site int) Request
	// Rebuild makes again the request a commit log names by its Name and
	// Args, the one way serial replay learns what a logged commit did. It
	// wraps ErrUnknownTxn when name is none of the workload's
	// transactions, and refuses arguments no request of name carries.
	Rebuild(name string, args []int64) (Request, error)
}

// ErrUnknownTxn marks a Rebuild of a name the workload has no transaction
// for (classify with errors.Is).
var ErrUnknownTxn = errors.New("workload: unknown transaction")
