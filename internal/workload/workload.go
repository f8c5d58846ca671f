// Package workload defines the interface between benchmark workloads
// (the Section 6.1 microbenchmark, Section 6.2 TPC-C) and the protocol
// runtimes: stored procedures executing against a site-local view, treaty
// units governing groups of objects, and the future-execution models
// Algorithm 1 samples.
package workload

import (
	"math/rand"

	"repro/internal/lang"
	"repro/internal/treaty"
)

// SiteView is what a stored procedure sees while executing at one site.
// Under the homeostasis protocol, logical reads and writes of replicated
// objects go through the Appendix B delta encoding (base value plus the
// site's own delta object); under 2PC/local they access objects directly.
type SiteView interface {
	// Site returns the executing site's id.
	Site() int
	// NSites returns the number of sites.
	NSites() int
	// ReadLogical returns the site's view of a replicated object's logical
	// value.
	ReadLogical(obj lang.ObjID) (int64, error)
	// WriteLogical updates the site's view of a replicated object's
	// logical value (a delta write under homeostasis).
	WriteLogical(obj lang.ObjID, v int64) error
	// Print appends to the transaction's observable log.
	Print(v int64)
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
	// Apply reads or writes, including objects outside the treaty units
	// (e.g. the unfulfilled-order count a New Order bumps). The cleanup
	// phase folds and consolidates exactly these objects before running
	// the transaction as T' on every site.
	Objects []lang.ObjID
	// Exec runs the stored procedure against a site view. Errors indicate
	// lock failures; the runtime aborts and retries.
	//
	// Exec and Apply take the invocation's arguments (callers pass Args)
	// instead of closing over them, so a workload whose procedures are
	// parameterized binds each function once per class and a request costs
	// no closure. Workloads that draw everything when they build the
	// request (micro, TPC-C) ignore the parameter.
	Exec func(v SiteView, args []int64) error
	// Apply performs the transaction's logical effect on a folded
	// (consolidated) database, in place, and returns its print log. The
	// cleanup phase uses it to run the treaty-violating transaction T' at
	// every site, and correctness tests use it for serial replay. Like
	// Exec it runs under the runtime's execution right: a registered
	// class's Apply borrows one of the class's pooled environments.
	Apply func(db lang.Database, args []int64) []int64
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
}
