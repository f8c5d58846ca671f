// Package store implements each site's local transactional storage: an
// in-memory object->int64 store guarded by a strict two-phase-locking
// manager with shared/exclusive locks, lock upgrades, wait-for-graph
// deadlock detection, and a configurable lock-wait timeout (the paper's
// MySQL deployment used innodb_lock_wait_timeout = 1s, which produces the
// long latency tail discussed in Section 6.2).
package store

import (
	"errors"
	"fmt"

	"repro/internal/lang"
	"repro/internal/rt"
)

// Lock-acquisition failures. Both abort the requesting transaction.
var (
	// ErrLockTimeout is returned when a lock wait exceeds the store's
	// timeout.
	ErrLockTimeout = errors.New("store: lock wait timeout exceeded")
	// ErrDeadlock is returned when granting the request would create a
	// wait-for cycle; the requester is chosen as the victim.
	ErrDeadlock = errors.New("store: deadlock detected")
)

// LockMode distinguishes shared from exclusive locks.
type LockMode int

const (
	// LockS is a shared (read) lock.
	LockS LockMode = iota
	// LockX is an exclusive (write) lock.
	LockX
)

func (m LockMode) String() string {
	if m == LockS {
		return "S"
	}
	return "X"
}

// Store is one site's local database.
type Store struct {
	e  rt.Runtime
	db lang.Database

	locks *lockTable

	// freeTxns recycles finished transactions (see Recycle) so the
	// commit fast path does not allocate a Txn per request. Accessed
	// only under the runtime's execution right, like all store state.
	freeTxns []*Txn

	// LockTimeout bounds lock waits; zero means wait forever.
	LockTimeout rt.Duration

	nextTxnID int

	Stats
}

// Stats is a store's counters, or a sum of several stores'. It is the one
// definition of the four: the protocol layer and the public API alias it,
// and the wire form is a conversion of it.
type Stats struct {
	Commits   int64
	Aborts    int64
	Deadlocks int64
	Timeouts  int64
}

func (s Stats) String() string {
	return fmt.Sprintf("commits=%d aborts=%d deadlocks=%d timeouts=%d",
		s.Commits, s.Aborts, s.Deadlocks, s.Timeouts)
}

// Add accumulates another store's counters.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Deadlocks += o.Deadlocks
	s.Timeouts += o.Timeouts
}

// New creates a store with a copy of the initial database.
func New(e rt.Runtime, initial lang.Database) *Store {
	return &Store{
		e:     e,
		db:    initial.Clone(),
		locks: newLockTable(e),
	}
}

// Get reads an object without any locking (used by the protocol layer
// outside transaction scope, e.g. when assembling synchronization
// messages).
func (s *Store) Get(obj lang.ObjID) int64 { return s.db.Get(obj) }

// Apply installs a value without locking (used when applying remote
// synchronization state during cleanup).
func (s *Store) Apply(obj lang.ObjID, v int64) { s.db.Set(obj, v) }

// Snapshot returns a copy of the full database.
func (s *Store) Snapshot() lang.Database { return s.db.Clone() }

// ObjValue is an (object, value) pair used in synchronization messages.
type ObjValue struct {
	Obj   lang.ObjID
	Value int64
}

// Txn is an open transaction holding locks. All methods must be called
// from the owning process.
type Txn struct {
	s    *Store
	p    rt.Proc
	id   int
	undo []ObjValue
	// held lists the objects this transaction holds granted locks on,
	// in grant order; releaseAll walks it instead of a per-txn map.
	held []lang.ObjID
	// waitObj/waiting name the single lock wait in progress (a process
	// waits on at most one lock at a time). releaseAll uses them to
	// clear the pending queue entry a cancelled wait leaves behind.
	waitObj lang.ObjID
	waiting bool
	closed  bool
}

// Begin opens a transaction, reusing a recycled one when available.
//
//homeo:hotpath
//homeo:checkout store.txn
func (s *Store) Begin(p rt.Proc) *Txn {
	s.nextTxnID++
	var t *Txn
	if n := len(s.freeTxns); n > 0 {
		t = s.freeTxns[n-1]
		s.freeTxns[n-1] = nil
		s.freeTxns = s.freeTxns[:n-1]
		t.undo = t.undo[:0]
		t.held = t.held[:0]
		t.waiting = false
		t.closed = false
	} else {
		t = &Txn{s: s}
	}
	t.p = p
	t.id = s.nextTxnID
	return t
}

// Recycle returns a finished (committed or aborted) transaction to the
// store's free list for reuse by a later Begin. The caller must hold no
// further references; recycling an open transaction is a no-op.
//
//homeo:release store.txn
func (s *Store) Recycle(t *Txn) {
	if t == nil || !t.closed {
		return
	}
	s.freeTxns = append(s.freeTxns, t)
}

// Read acquires a shared lock and returns the object's value.
func (t *Txn) Read(obj lang.ObjID) (int64, error) {
	if t.closed {
		return 0, fmt.Errorf("store: read on closed transaction")
	}
	if err := t.s.locks.acquire(t.p, t, obj, LockS, t.s.LockTimeout); err != nil {
		return 0, err
	}
	return t.s.db.Get(obj), nil
}

// Write acquires an exclusive lock and installs the value, recording undo
// information.
func (t *Txn) Write(obj lang.ObjID, v int64) error {
	if t.closed {
		return fmt.Errorf("store: write on closed transaction")
	}
	if err := t.s.locks.acquire(t.p, t, obj, LockX, t.s.LockTimeout); err != nil {
		return err
	}
	if !t.wroteObj(obj) {
		t.undo = append(t.undo, ObjValue{Obj: obj, Value: t.s.db.Get(obj)})
	}
	t.s.db.Set(obj, v)
	return nil
}

// wroteObj reports whether the transaction already wrote obj (one undo
// entry per object). Transactions touch a handful of objects, so a
// linear scan beats a per-txn map.
func (t *Txn) wroteObj(obj lang.ObjID) bool {
	for i := range t.undo {
		if t.undo[i].Obj == obj {
			return true
		}
	}
	return false
}

// Commit keeps the transaction's writes and releases all locks.
func (t *Txn) Commit() {
	if t.closed {
		return
	}
	t.closed = true
	t.s.Commits++
	t.s.locks.releaseAll(t)
}

// Abort rolls back the transaction's writes and releases all locks.
func (t *Txn) Abort() {
	if t.closed {
		return
	}
	t.closed = true
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.s.db.Set(t.undo[i].Obj, t.undo[i].Value)
	}
	t.s.Aborts++
	t.s.locks.releaseAll(t)
}

// lockReq is one entry in an object's lock queue.
type lockReq struct {
	txn     *Txn
	proc    rt.Proc
	mode    LockMode
	granted bool
	// upgrade marks an S->X upgrade request.
	upgrade bool
	// timedOut is set by the timeout event so the waiter can distinguish
	// wake reasons.
	timedOut bool
	// waited marks a request whose wait armed a timeout event. The
	// event's closure retains the request past its removal from the
	// queue, so waited requests must not return to the free list.
	waited bool
}

type lockTable struct {
	e      rt.Runtime
	queues map[lang.ObjID][]*lockReq
	// freeReqs and freeQs recycle queue entries and emptied queue
	// slices so the uncontended acquire/release cycle does not allocate.
	freeReqs []*lockReq
	freeQs   [][]*lockReq
}

func newLockTable(e rt.Runtime) *lockTable {
	return &lockTable{
		e:      e,
		queues: make(map[lang.ObjID][]*lockReq),
	}
}

// newReq checks a queue entry out of the free list.
//
//homeo:checkout store.lockreq
func (lt *lockTable) newReq() *lockReq {
	if n := len(lt.freeReqs); n > 0 {
		r := lt.freeReqs[n-1]
		lt.freeReqs[n-1] = nil
		lt.freeReqs = lt.freeReqs[:n-1]
		return r
	}
	return &lockReq{}
}

// freeReq returns a queue entry to the free list, unless a timeout
// closure may still hold it (see lockReq.waited).
//
//homeo:release store.lockreq
func (lt *lockTable) freeReq(r *lockReq) {
	if r.waited {
		// A pending timeout closure may still hold this request; let the
		// GC reclaim it instead of risking a reused entry being mutated.
		//homeo:leak timeout closure may still hold r; GC reclaims it
		return
	}
	*r = lockReq{}
	lt.freeReqs = append(lt.freeReqs, r)
}

func compatible(a, b LockMode) bool { return a == LockS && b == LockS }

// findReq returns the queue entry of txn for obj, if any.
func findReq(q []*lockReq, txn *Txn) *lockReq {
	for _, r := range q {
		if r.txn.id == txn.id {
			return r
		}
	}
	return nil
}

// canGrant decides whether req (in q) can be granted now.
func canGrant(q []*lockReq, req *lockReq) bool {
	if req.upgrade {
		// Upgrade succeeds when req's transaction is the only granted
		// holder.
		for _, r := range q {
			if r != req && r.granted && r.txn.id != req.txn.id {
				return false
			}
		}
		return true
	}
	// FIFO: all earlier queue entries must be compatible granted holders
	// or compatible waiting requests (no barging past waiters).
	for _, r := range q {
		if r == req {
			return true
		}
		if r.txn.id == req.txn.id {
			continue
		}
		if !compatible(r.mode, req.mode) {
			return false
		}
	}
	return true
}

func (lt *lockTable) acquire(p rt.Proc, txn *Txn, obj lang.ObjID, mode LockMode, timeout rt.Duration) error {
	q := lt.queues[obj]
	if existing := findReq(q, txn); existing != nil && existing.granted {
		if existing.mode >= mode {
			return nil // already held at sufficient strength
		}
		// S -> X upgrade.
		existing.upgrade = true
		existing.mode = LockX
		if canGrant(lt.queues[obj], existing) {
			existing.upgrade = false
			return nil
		}
		return lt.wait(p, txn, obj, existing, timeout)
	}
	req := lt.newReq()
	req.txn, req.proc, req.mode = txn, p, mode
	if q == nil {
		if n := len(lt.freeQs); n > 0 {
			q = lt.freeQs[n-1]
			lt.freeQs[n-1] = nil
			lt.freeQs = lt.freeQs[:n-1]
		}
	}
	lt.queues[obj] = append(q, req)
	if canGrant(lt.queues[obj], req) {
		req.granted = true
		txn.held = append(txn.held, obj)
		return nil
	}
	return lt.wait(p, txn, obj, req, timeout)
}

// wait parks until the request is granted, times out, or would deadlock.
func (lt *lockTable) wait(p rt.Proc, txn *Txn, obj lang.ObjID, req *lockReq, timeout rt.Duration) error {
	if lt.wouldDeadlock(txn, obj) {
		lt.removeReq(obj, req)
		lt.freeReq(req)
		txn.s.Deadlocks++
		return ErrDeadlock
	}
	var deadline rt.Time = -1
	if timeout > 0 {
		deadline = lt.e.Now() + rt.Time(timeout)
	}
	txn.waitObj, txn.waiting = obj, true
	defer func() { txn.waiting = false }()
	for {
		token := p.PrepPark()
		if deadline >= 0 {
			req.waited = true
			lt.e.At(deadline, func() {
				if !req.granted {
					req.timedOut = true
					p.WakeIf(token)
				}
			})
		}
		p.Park()
		if req.granted && !req.upgrade {
			txn.held = append(txn.held, obj)
			return nil
		}
		if req.granted && req.upgrade {
			// Upgrade completed by grantWaiters.
			req.upgrade = false
			return nil
		}
		if req.timedOut || (deadline >= 0 && lt.e.Now() >= deadline) {
			lt.removeReq(obj, req)
			txn.s.Timeouts++
			return ErrLockTimeout
		}
	}
}

// wouldDeadlock reports whether txn waiting on obj creates a wait-for
// cycle. Edges: a waiting transaction waits for every incompatible granted
// holder of the object it wants.
func (lt *lockTable) wouldDeadlock(txn *Txn, obj lang.ObjID) bool {
	// Build the wait-for graph.
	waitsFor := make(map[int][]int)
	addEdges := func(waiter *lockReq, o lang.ObjID) {
		for _, r := range lt.queues[o] {
			if r.granted && r.txn.id != waiter.txn.id && !compatible(r.mode, waiter.mode) {
				waitsFor[waiter.txn.id] = append(waitsFor[waiter.txn.id], r.txn.id)
			}
		}
	}
	for o, q := range lt.queues {
		for _, r := range q {
			if !r.granted || r.upgrade {
				addEdges(r, o)
			}
		}
	}
	// Hypothetical edge set for txn waiting on obj.
	for _, r := range lt.queues[obj] {
		if r.granted && r.txn.id != txn.id {
			waitsFor[txn.id] = append(waitsFor[txn.id], r.txn.id)
		}
	}
	// DFS from txn looking for a cycle back to txn.
	seen := make(map[int]bool)
	var dfs func(id int) bool
	dfs = func(id int) bool {
		if seen[id] {
			return false
		}
		seen[id] = true
		for _, next := range waitsFor[id] {
			if next == txn.id || dfs(next) {
				return true
			}
		}
		return false
	}
	for _, next := range waitsFor[txn.id] {
		if next == txn.id || dfs(next) {
			return true
		}
	}
	return false
}

func (lt *lockTable) removeReq(obj lang.ObjID, req *lockReq) {
	q := lt.queues[obj]
	for i, r := range q {
		if r == req {
			lt.queues[obj] = append(q[:i], q[i+1:]...)
			break
		}
	}
	lt.grantWaiters(obj)
}

// releaseAll frees every lock txn holds and re-evaluates waiters. The
// transaction's held list replaces the old table-wide scan: release cost
// is proportional to the locks the transaction took, not to the number
// of live lock queues.
func (lt *lockTable) releaseAll(txn *Txn) {
	// A cancelled wait (process killed while parked) leaves one pending
	// request behind; wait() never returned to remove it.
	pendingObj := lang.ObjID("")
	hasPending := false
	if txn.waiting {
		txn.waiting = false
		pendingObj, hasPending = txn.waitObj, true
		q := lt.queues[pendingObj]
		out := q[:0]
		for _, r := range q {
			if r.txn.id != txn.id || r.granted {
				out = append(out, r)
			} else {
				lt.freeReq(r)
			}
		}
		lt.queues[pendingObj] = out
	}
	for _, o := range txn.held {
		q, ok := lt.queues[o]
		if !ok {
			// The entry was already removed (e.g. a timed-out upgrade
			// dropped the grant and the queue emptied meanwhile).
			continue
		}
		out := q[:0]
		for _, r := range q {
			if r.txn.id != txn.id {
				out = append(out, r)
			} else {
				lt.freeReq(r)
			}
		}
		if len(out) == 0 {
			delete(lt.queues, o)
			lt.freeQs = append(lt.freeQs, out)
		} else {
			lt.queues[o] = out
		}
		lt.grantWaiters(o)
	}
	txn.held = txn.held[:0]
	if hasPending {
		lt.grantWaiters(pendingObj)
	}
}

// grantWaiters grants every request that has become grantable and wakes
// its process.
func (lt *lockTable) grantWaiters(obj lang.ObjID) {
	q := lt.queues[obj]
	for _, r := range q {
		if r.granted && !r.upgrade {
			continue
		}
		if canGrant(q, r) {
			r.granted = true
			// An upgrade keeps r.upgrade set; wait() clears it on wake so
			// the waiter can distinguish upgrade completion. The object is
			// already on the transaction's held list from the S grant.
			proc := r.proc
			token := proc != nil
			if token {
				tok := procToken(proc)
				lt.e.At(lt.e.Now(), func() { proc.WakeIf(tok) })
			}
		}
	}
}

// procToken exposes the current park token of a process for deferred
// wakes. (Relies on the rt execution contract: the process is parked
// while this runs, and wake events hold the execution right.)
func procToken(p rt.Proc) int64 { return p.Token() }
