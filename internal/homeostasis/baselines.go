package homeostasis

import (
	"fmt"

	"repro/internal/rt"
	"repro/internal/store"
	"repro/internal/workload"
)

// execTwoPC runs one request through two-phase commit across all
// replicas: execute locally holding locks, prepare round (one RTT)
// shipping the coordinator's write set, commit round (one RTT). Remote
// lock waits beyond the lock timeout (or deadlocks) abort the transaction
// everywhere and the client retries, which is the conflict behavior that
// degrades 2PC under contention (Figures 19-22).
func (sys *System) execTwoPC(p rt.Proc, site int, req workload.Request) (ExecResult, error) {
	for attempt := 0; ; attempt++ {
		if attempt > 200 {
			return ExecResult{}, fmt.Errorf("%w: 2PC request %s", ErrLivelocked, req.Name)
		}
		ok, log, err := sys.twoPCAttempt(p, site, req)
		if ok {
			return ExecResult{Committed: true, Log: log}, nil
		}
		if err != nil {
			return ExecResult{}, err
		}
		sys.Col.RecordConflictAbort()
		// Randomized exponential backoff: deterministic-interval retries
		// re-collide in lockstep (two coordinators deadlocking across
		// sites time out together and conflict again forever).
		shift := attempt
		if shift > 6 {
			shift = 6
		}
		window := int64(sys.Opts.LocalExecTime) * (1 << shift)
		p.Sleep(rt.Duration(int64(sys.Opts.LocalExecTime) + sys.E.Rand().Int63n(window)))
	}
}

// twoPCAttempt performs one 2PC round trip, reporting whether it
// committed, and the stored procedure's error when it aborts its request.
// All transactions are closed on every exit path, including deadline
// cancellation (the deferred aborts are no-ops after commit).
func (sys *System) twoPCAttempt(p rt.Proc, site int, req workload.Request) (bool, []int64, error) {
	n := sys.Opts.Topo.NSites()
	cpu := sys.CPUs[site]
	cpu.Acquire(p)
	p.Sleep(sys.Opts.LocalExecTime)

	// Local execution with locks held through the commit rounds.
	local := sys.Stores[site].Begin(p)
	defer local.Abort()
	var remotes []*store.Txn
	defer func() {
		for _, rt := range remotes {
			rt.Abort()
		}
	}()

	lview := &directView{tx: local}
	if err := req.Exec(lview, req.Args); err != nil {
		cpu.Release()
		if aborts(err) {
			return false, nil, err
		}
		return false, nil, nil
	}
	cpu.Release()

	// Prepare round: ship the coordinator's write set to every replica
	// (half RTT out), install it there under exclusive locks (value
	// replication — replicas must not recompute from their own state),
	// votes return (half RTT).
	writes := lview.writeSet()
	p.Sleep(sys.Opts.Topo.MaxOneWayFrom(site))
	ok := true
	for s := 0; s < n && ok; s++ {
		if s == site {
			continue
		}
		rt := sys.Stores[s].Begin(p)
		remotes = append(remotes, rt)
		for _, wv := range writes {
			if err := rt.Write(wv.Obj, wv.Value); err != nil {
				ok = false
				break
			}
		}
	}
	p.Sleep(sys.Opts.Topo.MaxOneWayFrom(site))
	if !ok {
		return false, nil, nil // deferred aborts clean up everywhere
	}

	// Commit round: decision out (half RTT), acks back (half RTT). The
	// commit point is atomic in virtual time: all replicas install
	// together.
	p.Sleep(sys.Opts.Topo.MaxOneWayFrom(site))
	for _, rt := range remotes {
		rt.Commit()
	}
	local.Commit()
	sys.logCommit(req, site, lview.log)
	p.Sleep(sys.Opts.Topo.MaxOneWayFrom(site))
	return true, lview.log, nil
}

// execLocal runs one request purely locally with no synchronization (the
// "local" baseline: a bare-bones performance bound with no cross-site
// consistency).
func (sys *System) execLocal(p rt.Proc, site int, req workload.Request) (ExecResult, error) {
	cpu := sys.CPUs[site]
	cpu.Acquire(p)
	defer cpu.Release()
	p.Sleep(sys.Opts.LocalExecTime)
	tx := sys.Stores[site].Begin(p)
	defer tx.Abort()
	view := &directView{tx: tx}
	if err := req.Exec(view, req.Args); err != nil {
		if aborts(err) {
			return ExecResult{}, err
		}
		// The local baseline does not retry: the conflict abort is counted
		// and the request ends uncommitted but without error (the paper's
		// accounting; see ExecResult.Committed).
		sys.Col.RecordConflictAbort()
		return ExecResult{}, nil
	}
	tx.Commit()
	sys.logCommit(req, site, view.log)
	return ExecResult{Committed: true, Log: view.log}, nil
}
