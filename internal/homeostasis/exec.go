package homeostasis

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/wal"
	"repro/internal/workload"
)

// execFrame is the pooled per-request execution scratch: the resolved
// unit slice, the demand snapshot matrix, and the delta view with its
// print-log buffer. Frames are checked out for the whole of execHomeo —
// they survive park points — and recycled on exit; the free list lives
// on the System and is only touched under the execution right.
type execFrame struct {
	units  []*unitState
	before [][]int64
	view   deltaView
}

// getFrame checks an execution frame out of the free list.
//
//homeo:checkout exec.frame
func (sys *System) getFrame() *execFrame {
	if n := len(sys.frames); n > 0 {
		f := sys.frames[n-1]
		sys.frames[n-1] = nil
		sys.frames = sys.frames[:n-1]
		return f
	}
	return &execFrame{}
}

// putFrame scrubs a frame and returns it to the free list.
//
//homeo:release exec.frame
func (sys *System) putFrame(f *execFrame) {
	f.units = f.units[:0]
	f.view.tx = nil
	f.view.log = f.view.log[:0]
	sys.frames = append(sys.frames, f)
}

// roundScratch is the coordinator's working state for one cleanup round:
// everything negotiate builds that no one keeps once the round is over.
// A round parks (communication, solver time), and rounds over different
// units interleave at those park points, so the scratch is checked out
// for the whole of negotiate rather than shared; the free list lives on
// the System and is only touched under the execution right.
//
// What may live here is what both transports are done with when their
// call returns: Local's handlers read their message and keep none of
// these (the grant's winner pointer dies with the grant, below), and HTTP
// converts every outgoing message to its wire form before it parks. What
// may not: anything handed on for keeps — the locals a site installs, the
// print logs, the commit log's round id — and the StateReply values,
// which the transport reads after the handler returned.
type roundScratch struct {
	sys *System

	// The round as collectMsg needs it (set by negotiate).
	neg   *negotiation
	units []*unitState
	req   workload.Request
	rid   fabric.RoundID

	// grant is the round's entry in sys.rounds, from newRound until
	// negotiate (or abortRound) deletes it.
	grant roundGrant
	// joiners and objs (the round's footprint) are final once collectMsg
	// ran.
	joiners []*joiner
	objs    []lang.ObjID
	// folded is the consolidated footprint T' runs on; unitFolded one
	// unit's share of it.
	folded     lang.Database
	unitFolded lang.Database
	joinerLogs [][]int64
	winner     fabric.WinnerCommit
	installs   []fabric.InstallTreaties

	// collectFn is collectMsg as a func value, bound once.
	collectFn func() fabric.CollectState
}

// getRound checks a round scratch out of the free list.
//
//homeo:checkout round.scratch
func (sys *System) getRound() *roundScratch {
	if n := len(sys.roundFree); n > 0 {
		rs := sys.roundFree[n-1]
		sys.roundFree[n-1] = nil
		sys.roundFree = sys.roundFree[:n-1]
		return rs
	}
	rs := &roundScratch{sys: sys, folded: lang.Database{}, unitFolded: lang.Database{}}
	rs.collectFn = rs.collectMsg
	return rs
}

// putRound scrubs a round scratch — nothing of the finished round stays
// reachable through it — and returns it to the free list.
//
//homeo:release round.scratch
//homeo:hotpath
func (sys *System) putRound(rs *roundScratch) {
	rs.neg, rs.units, rs.req, rs.joiners = nil, nil, workload.Request{}, nil
	clear(rs.objs)
	rs.objs = rs.objs[:0]
	clear(rs.folded)
	clear(rs.unitFolded)
	clear(rs.joinerLogs)
	rs.joinerLogs = rs.joinerLogs[:0]
	rs.winner = fabric.WinnerCommit{}
	clear(rs.grant.sites)
	rs.grant = roundGrant{sites: rs.grant.sites[:0]}
	for k := range rs.installs {
		clear(rs.installs[k].Units)
		rs.installs[k].Units = rs.installs[k].Units[:0]
	}
	sys.roundFree = append(sys.roundFree, rs)
}

// collectMsg materializes the round-1 message when the round's membership
// is final: violators that joined while the round was in flight are folded
// too, and joining closes at this instant — later violators must not slip
// in after the fold.
//
//homeo:hotpath
func (rs *roundScratch) collectMsg() fabric.CollectState {
	if rs.neg != nil {
		rs.neg.accepting = false
		rs.joiners = rs.neg.joiners
	}
	// The batch's entire logical footprint, ascending: the violated units'
	// objects plus any objects outside them that T' or a co-winner touches
	// (the paper's cleanup synchronizes everything updated in the round
	// before running T').
	objs := rs.objs[:0]
	for _, u := range rs.units {
		objs = append(objs, u.objects...)
	}
	objs = append(objs, rs.req.Objects...)
	for _, j := range rs.joiners {
		objs = append(objs, j.req.Objects...)
	}
	slices.Sort(objs)
	rs.objs = slices.Compact(objs)
	// The units are the request's own list: negotiate's callers resolve
	// units from req.Units, in order, and nobody rewrites a request's
	// units (the winner and the commit log share the slice too).
	return fabric.CollectState{Round: rs.rid, Clock: rs.sys.tickClock(), Units: rs.req.Units, Objs: rs.objs}
}

// deltaName returns lang.DeltaObj(obj, site) through a per-object cache:
// the hot path reads and writes delta objects on every logical access,
// and formatting the name each time is an allocation per access. Only
// called under the execution right.
func (sys *System) deltaName(obj lang.ObjID, site int) lang.ObjID {
	names := sys.deltaNames[obj]
	if site >= len(names) {
		// Fill through the current site count (elastic joins can push
		// site past a previously cached slice).
		top := sys.Opts.Topo.NSites()
		if top <= site {
			top = site + 1
		}
		names = lang.AppendDeltaObjs(slices.Grow(names, top-len(names)), obj, len(names), top)
		sys.deltaNames[obj] = names
	}
	return names[site]
}

// Cold-path error constructors, kept out of the //homeo:hotpath bodies:
// formatting allocates, and these run only on protocol failures.

func errUnknownUnit(name string, id int) error {
	return fmt.Errorf("%w: request %s names unknown unit %d", ErrProtocol, name, id)
}

func errLivelocked(name string) error {
	return fmt.Errorf("%w: request %s", ErrLivelocked, name)
}

func errSiteGone(site int, st siteStatus) error {
	return fmt.Errorf("homeostasis: site %d is %v: %w", site, st, fabric.ErrSiteGone)
}

func errProtocol(name string, err error) error {
	return fmt.Errorf("%w: request %s: %v", ErrProtocol, name, err)
}

// execHomeo runs one request under the homeostasis protocol (also used by
// OPT and the default-config ablation, which differ only in treaty
// generation): disconnected local execution, pre-commit local treaty
// check, and on violation the cleanup phase of Section 3.3.
//
//homeo:hotpath
func (sys *System) execHomeo(p rt.Proc, site int, req workload.Request) (ExecResult, error) {
	f := sys.getFrame()
	defer sys.putFrame(f)
	for _, id := range req.Units {
		if id < 0 || id >= len(sys.Units) {
			return ExecResult{}, errUnknownUnit(req.Name, id)
		}
		f.units = append(f.units, sys.Units[id])
	}
	units := f.units
	track := sys.Opts.Alloc != AllocDefault
	var before [][]int64
	if track {
		for len(f.before) < len(units) {
			f.before = append(f.before, nil)
		}
		before = f.before[:len(units)]
		for i, u := range units {
			if cap(before[i]) < len(u.objects) {
				before[i] = make([]int64, len(u.objects))
			}
			before[i] = before[i][:len(u.objects)]
		}
	}
	for attempt := 0; ; attempt++ {
		if attempt > 100 {
			sys.Col.RecordLivelock()
			return ExecResult{}, errLivelocked(req.Name)
		}
		// Membership fence, re-checked every attempt: an execution
		// admitted before its site started draining must not commit a
		// delta after the drain's absorb round folded the unit (waiting
		// out a round below is a park point, so the drain can interleave).
		if site < len(sys.status) && sys.status[site] != siteActive {
			return ExecResult{}, errSiteGone(site, sys.status[site])
		}
		// If any touched unit is renegotiating, wait for the new round:
		// new transactions must see the new treaty.
		for _, u := range units {
			sys.waitForUnit(p, u)
		}

		// Local execution: occupy a CPU slot for the service time, then
		// apply the stored procedure against the local store. The deferred
		// Abort is a no-op after Commit and guards against the process
		// being cancelled at the simulation deadline with tentative writes
		// still installed.
		cpu := sys.CPUs[site]
		cpu.Acquire(p)
		p.Sleep(sys.Opts.LocalExecTime)
		// Multi-process only: a synchronization round may have frozen the
		// units while this process was parked in the CPU queue or the
		// service-time sleep above (its waitForUnit ran before the
		// freeze). Executing now could check the round's freshly installed
		// state against the not-yet-replaced treaties — the round-1/
		// round-2 gap — and commit a write the round's fold never saw.
		// Back out and re-wait. In-process the gap is closed by the
		// runtime's execution atomicity at each round step, and the seed's
		// simulator timeline (which the experiment goldens pin) is
		// preserved by not re-checking there.
		if sys.self >= 0 {
			frozen := false
			for _, u := range units {
				if u.negotiating {
					frozen = true
					break
				}
			}
			if frozen {
				cpu.Release()
				continue
			}
		}
		// Demand snapshot: between here and the commit there are no park
		// points, so the delta movement below is exactly this request's.
		// Per object, not per unit sum — opposing movements of a unit's
		// objects must not cancel out of the burn.
		if track {
			for i, u := range units {
				for k, obj := range u.objects {
					before[i][k] = sys.Stores[site].Get(sys.deltaName(obj, site))
				}
			}
		}
		committed, violated, violIdx, commitLog := sys.execAttempt(p, site, req, f)
		if committed && track {
			for i, u := range units {
				for k, obj := range u.objects {
					d := sys.Stores[site].Get(sys.deltaName(obj, site)) - before[i][k]
					if d < 0 {
						d = -d
					}
					u.demand[site].burn.Add(d)
				}
			}
		}
		cpu.Release()
		if committed {
			return ExecResult{Committed: true, Log: commitLog}, nil
		}
		if !violated {
			// Lock failure during execution: retry.
			sys.Col.RecordConflictAbort()
			continue
		}
		if track {
			units[violIdx].demand[site].violations.Add(1)
		}

		// Treaty violation: the write was rolled back (it must not commit
		// in this round); run the cleanup phase with this request as the
		// winning transaction T' — unless another violator won the vote
		// first. With batching enabled the queued violator registers as a
		// co-winner of the in-flight round when it still can; otherwise
		// (and always under AllocDefault) it waits and retries as a
		// "loser".
		busy := false
		for _, u := range units {
			if u.negotiating {
				busy = true
				break
			}
		}
		if busy {
			if j := sys.tryJoin(units, site, req); j != nil {
				for _, u := range units {
					sys.waitForUnit(p, u)
				}
				if j.committed {
					// Folded into the round: T' ran at every site with
					// this request batched behind the winner.
					sys.Col.RecordCoWinner()
					return ExecResult{Committed: true, Synced: true, Log: j.log}, nil
				}
				// The round closed before this joiner registered was
				// folded in; retry against the fresh treaties.
				continue
			}
			sys.BusyRetries++
			for _, u := range units {
				sys.waitForUnit(p, u)
			}
			continue
		}
		winLog, negErr := sys.negotiate(p, site, units, req, nil)
		if negErr != nil {
			if errors.Is(negErr, fabric.ErrBusy) {
				// A coordinator in another process holds (some of) the
				// units: the round never started here. Back off a jittered
				// service time before retrying (multi-process only — the
				// Local fabric cannot refuse). The backoff is asymmetric
				// by site id: when two sites violate the same unit
				// simultaneously and refuse each other, the lower site
				// retries sooner and wins the duel instead of both
				// re-colliding for many rounds.
				sys.BusyRetries++
				base := int64(sys.Opts.LocalExecTime)
				p.Sleep(rt.Duration(base*int64(site+1) + sys.E.Rand().Int63n(base*4+1)))
				continue
			}
			return ExecResult{}, errProtocol(req.Name, negErr)
		}
		// T' was executed at every site during cleanup; done.
		return ExecResult{Committed: true, Synced: true, Log: winLog}, nil
	}
}

// execAttempt is one local execution attempt: run the stored procedure
// in a pooled transaction against the frame's delta view, then check the
// local treaties before committing. Returns the violated unit's index in
// f.units (when violated) and a copy of the print log (when committed —
// the frame's buffer is recycled, so the log must not escape by
// reference). A (false, false, ...) return is a lock failure during
// execution; the caller retries.
func (sys *System) execAttempt(p rt.Proc, site int, req workload.Request, f *execFrame) (committed, violated bool, violIdx int, commitLog []int64) {
	for _, u := range f.units {
		u.inflight++
	}
	defer func() {
		for _, u := range f.units {
			u.inflight--
		}
	}()
	st := sys.Stores[site]
	tx := st.Begin(p)
	defer func() {
		// No-op after a commit; rolls back tentative writes when the
		// process is cancelled at the deadline mid-execution. The
		// transaction is finished either way, so it goes back to the
		// store's free list.
		tx.Abort()
		st.Recycle(tx)
	}()
	f.view.tx = tx
	f.view.sys = sys
	f.view.site = site
	f.view.nSites = sys.Opts.Topo.NSites()
	f.view.log = f.view.log[:0]
	if execErr := req.Exec(&f.view, req.Args); execErr != nil {
		return false, false, -1, nil
	}
	// Pre-commit check: would committing leave the site's state inside
	// its local treaties? The store already reflects the tentative
	// writes. ExecRequest admitted the site, and every unit holds one
	// compiled treaty per site of the current width (addUnit, growUnit).
	for i, u := range f.units {
		if !u.treaties[site].Holds(sys.Stores[site]) {
			return false, true, i, nil
		}
	}
	tx.Commit()
	if len(f.view.log) > 0 {
		commitLog = append([]int64(nil), f.view.log...)
	}
	sys.logCommit(req, site, commitLog)
	return true, false, -1, commitLog
}

// tryJoin registers the violator as a co-winner of the negotiation
// covering every unit it touches, if that round is still accepting
// (leader still in its first communication round). Returns nil when the
// units span no single accepting round — the caller falls back to the
// serial loser path. Only called with batching enabled.
func (sys *System) tryJoin(units []*unitState, site int, req workload.Request) *joiner {
	if !sys.batching() || len(units) == 0 {
		return nil
	}
	neg := units[0].neg
	if neg == nil || !neg.accepting {
		return nil
	}
	for _, u := range units[1:] {
		if u.neg != neg {
			return nil
		}
	}
	j := &joiner{site: site, req: req}
	neg.joiners = append(neg.joiners, j)
	return j
}

// waitForUnit parks until the unit is not negotiating.
func (sys *System) waitForUnit(p rt.Proc, u *unitState) {
	for u.negotiating {
		u.waiters = append(u.waiters, p)
		p.PrepPark()
		p.Park()
	}
}

// wakeUnitWaiters releases every process waiting on the unit.
func (sys *System) wakeUnitWaiters(u *unitState) {
	waiters := u.waiters
	u.waiters = nil
	for _, w := range waiters {
		w := w
		token := w.Token()
		sys.E.At(sys.E.Now(), func() { w.WakeIf(token) })
	}
}

// negotiate is the cleanup phase (Section 3.3) scoped to the treaty units
// the winning transaction touches, run as the coordinator of an explicit
// site-fabric round (the violating site coordinates; in a multi-process
// cluster the role therefore rotates to wherever the violation happened):
//
//  1. synchronize: a CollectState scatter/gather ships every site's delta
//     values for the round's footprint (one communication round); with
//     batching enabled, violators queued behind these units register as
//     co-winners meanwhile;
//  2. execute the winning transaction T' — and every registered
//     co-winner, in registration order — on the consolidated state, and
//     install it everywhere (InstallState closes the round's all-to-all
//     state broadcast);
//  3. generate new treaties for the next round (solver time) and
//     distribute each site its locals (InstallTreaties, the second
//     communication round).
//
// The whole batch therefore pays the two communication rounds once. The
// commits performed here are unconditional: a treaty-generation failure
// in step 3 no longer concerns them (they are already applied and logged
// at every site), so it is surfaced as a protocol-degradation counter
// with safe pin treaties installed, never as a request error.
//
// Returns the winning transaction's print log; co-winners receive theirs
// through their joiner entries. A fabric.ErrBusy error means a remote
// coordinator holds some of the units and nothing was committed — the
// caller backs off and retries.
//
// It is the only coordinator: a drain absorb and a unit migration are the
// same round without a winner (a request with only Units set). Such a
// round folds and installs the units' state and renegotiates their
// treaties, and skips what belongs to T': no apply, no WinnerCommit, no
// commit-log entry, no co-winners, no execution charge, no violation
// sample. weights, when set, replaces the slack weights of the treaty
// build (a migration concentrates the slack at the unit's new home).
//
//homeo:externalizes
func (sys *System) negotiate(p rt.Proc, site int, units []*unitState, req workload.Request, weights []int64) ([]int64, error) {
	winner := req.Apply != nil
	var neg *negotiation
	if winner && sys.batching() && sys.self < 0 {
		// Batched renegotiation needs the joiners' footprints in the
		// round-1 fold; in a multi-process cluster remote violators
		// cannot join an in-flight round, so batching stays in-process.
		neg = &negotiation{accepting: true}
	}
	for _, u := range units {
		u.negotiating = true
		u.neg = neg
	}
	rs := sys.getRound()
	rs.neg, rs.units, rs.req = neg, units, req
	rs.rid = sys.newRound(site, req.Units, &rs.grant)
	rid := rs.rid
	commStart := p.Now()

	// Round 1: the state-synchronization scatter/gather. The message is
	// materialized when the round's membership is final (the Local
	// transport calls collectMsg at round completion).
	replies, err := sys.fab.Collect(p, site, rs.collectFn)
	if err != nil {
		// The round never synchronized (a peer was busy or unreachable):
		// release everything and report to the caller. Nothing committed.
		sys.abortRound(p, site, rid, units)
		sys.putRound(rs)
		//homeo:noexternalize round abort; nothing committed, a crash re-aborts via grant expiry
		return nil, err
	}
	joiners, objs := rs.joiners, rs.objs

	// Fold the footprint: the base value from the coordinating site's own
	// replica (replicated, identical at every member between rounds — a
	// gone site's copy stops at its absorb) plus every site's own delta
	// from its reply.
	base := sys.Stores[site]
	n := sys.Opts.Topo.NSites()
	folded := rs.folded
	for _, obj := range objs {
		v := base.Get(obj)
		for k := 0; k < n; k++ {
			v += replies[k].Values.Get(sys.deltaName(obj, k))
		}
		folded[obj] = v
	}
	for _, rep := range replies {
		sys.observeClock(rep.Clock)
	}

	// Execute T' on the consolidated state, in place, then the co-winners
	// in registration order (the serial order the commit log records).
	var txnLog []int64
	if winner {
		txnLog = req.Apply(folded, req.Args)
	}
	joinerLogs := rs.joinerLogs[:0]
	for _, j := range joiners {
		joinerLogs = append(joinerLogs, j.req.Apply(folded, j.req.Args))
	}
	rs.joinerLogs = joinerLogs

	// Install the consolidated post-batch state everywhere. In-process
	// this step is atomic in virtual time (no park points), and
	// homeostasis-mode local transactions never park mid-transaction, so
	// no in-flight transaction can observe a half-installed state; across
	// processes each site's actor installs atomically under its own
	// execution right, preserving any delta drift since its report. The
	// clock shipped here is T''s commit point, so every post-round commit
	// at a peer orders after the batch in a merged log.
	clk := sys.tickClock()
	install := fabric.InstallState{Round: rid, Clock: clk, Objs: objs, Folded: folded}
	if winner {
		rs.winner = fabric.WinnerCommit{Class: req.Name, Args: req.Args, Site: site, Units: req.Units, Log: txnLog}
		install.Winner = &rs.winner
	}
	// The fold is already computed and T' applied, so the batch must
	// commit whatever the scatter reports: sites track per-round installs,
	// so the retry's re-delivery to a site that already applied is a no-op,
	// and a peer that still misses the install has a diverged partition
	// until its next successful round on these units consolidates it — the
	// counter surfaces that a replay check may flag the window.
	_ = sys.scatterTwice(func() error { return sys.fab.Install(p, site, install) })
	comm1 := rt.Duration(p.Now() - commStart)
	// The batch is now committed at every site: log it before any further
	// park point so a deadline cancellation cannot leave it applied-but-
	// unlogged.
	if winner {
		sys.logCommitClock(clk, req, site, txnLog, &rid)
	}
	for i, j := range joiners {
		sys.logCommit(j.req, j.site, joinerLogs[i])
		j.log = joinerLogs[i]
		j.committed = true
	}
	// Durability point: once Distribute closes the peers' grants they will
	// never adopt this round's winner, so the coordinator's own WAL copy
	// must be on disk before round 2 ships.
	sys.walFlush(site)

	// Execution charge for the batch (Options.CleanupExec, live
	// runtimes): T' and every co-winner occupy a CPU slot for their
	// service time, after the atomic fold/install/log so the
	// consolidated state is never exposed half-built across a park
	// point. The simulator's default keeps the seed model instead —
	// the cost appears in the violation breakdown only (see Options).
	if winner && sys.Opts.CleanupExec {
		cpu := sys.CPUs[site]
		cpu.Acquire(p)
		p.Sleep(rt.Duration(1+len(joiners)) * sys.Opts.LocalExecTime)
		cpu.Release()
	}

	// Treaty computation (solver time charged in virtual time; the actual
	// computation runs for real to produce the real treaties). The
	// coordinator builds every site's local treaty; round 2 ships each
	// site exactly its own.
	solveStart := p.Now()
	p.Sleep(sys.solverTime())
	for len(rs.installs) < n {
		rs.installs = append(rs.installs, fabric.InstallTreaties{})
	}
	installs := rs.installs[:n]
	for k := range installs {
		installs[k] = fabric.InstallTreaties{Round: rid, Site: k, Units: installs[k].Units[:0]}
	}
	for _, u := range units {
		unitFolded := rs.unitFolded
		clear(unitFolded)
		for _, obj := range u.objects {
			unitFolded[obj] = folded[obj]
		}
		r := derivation{u: u, folded: unitFolded, width: n, weights: sys.slackWeights(u, weights)}
		locals, gerr := sys.der.derive(r)
		if gerr != nil {
			// The batch already committed: degrade this unit to safe pin
			// treaties (every next write synchronizes and retries real
			// generation) and surface the failure as a counter. If even
			// the pin fails the stale treaties stay — that path has no
			// failure mode short of a broken template builder.
			sys.Col.RecordTreatyGenFailure()
			r.pin = true
			locals, gerr = sys.der.derive(r)
		}
		if gerr == nil {
			v := u.version + 1
			for k := 0; k < n; k++ {
				installs[k].Units = append(installs[k].Units, fabric.UnitTreaty{
					Unit: u.id, Version: v, Local: locals[k],
				})
			}
		}
		u.resetDemand()
	}
	solver := rt.Duration(p.Now() - solveStart)

	// Round 2: distribute the new treaties.
	comm2Start := p.Now()
	c2 := sys.tickClock()
	for k := range installs {
		installs[k].Clock = c2
	}
	// Treaty installs are idempotent (version-guarded) and a remote close
	// of an already-closed round is a no-op. A peer that still misses round
	// 2 stays frozen until its grant expires, then degrades those units to
	// local pin treaties (see scheduleGrantExpiry) instead of resuming on
	// stale ones.
	_ = sys.scatterTwice(func() error { return sys.fab.Distribute(p, site, installs) })
	comm2 := rt.Duration(p.Now() - comm2Start)

	delete(sys.rounds, rid)
	sys.putRound(rs)
	for _, u := range units {
		u.negotiating = false
		u.neg = nil
		sys.wakeUnitWaiters(u)
	}
	if winner && sys.Col.Measuring {
		// The exec component is the winner's service time; co-winners are
		// counted by the collector's CoWinnerCommits, not here, so the
		// per-violation averages of Figure 24 keep their meaning.
		sys.Col.ViolationBreakdown.Add(sys.Opts.LocalExecTime, solver, comm1+comm2)
		sys.Col.RecordNegotiation(comm1 + comm2)
	}
	return txnLog, nil
}

// scatterTwice sends an idempotent scatter, once more over the network
// fabric if the first delivery failed (in-process the Local transport
// cannot fail in transit, so a failure there is final), and counts a
// fabric error if the retry failed too.
func (sys *System) scatterTwice(send func() error) error {
	err := send()
	if err != nil && sys.self >= 0 {
		err = send()
	}
	if err != nil {
		sys.Col.RecordFabricError()
	}
	return err
}

// abortRound unwinds a locally coordinated round whose round-1 collect
// failed: release every site's grant, unfreeze the units, and wake the
// waiters. Nothing was folded or committed. Local state is released
// before the abort messages go out (the scatter parks), so a competing
// coordinator's retry is not refused busy for the whole abort round
// trip.
func (sys *System) abortRound(p rt.Proc, site int, rid fabric.RoundID, units []*unitState) {
	delete(sys.rounds, rid)
	for _, u := range units {
		u.negotiating = false
		u.neg = nil
		sys.wakeUnitWaiters(u)
	}
	_ = sys.fab.Abort(p, site, fabric.AbortRound{Round: rid, Clock: sys.tickClock()})
}

func (sys *System) logCommit(req workload.Request, site int, log []int64) {
	sys.logCommitClock(sys.tickClock(), req, site, log, nil)
}

// logCommitClock records a commit at an explicit Lamport timestamp (the
// cleanup phase stamps T' with the clock its InstallState shipped, so
// post-round peer commits order after it). rid names the cleanup round
// for round commits — they carry no write watermark (the round's install
// record holds the state) but do carry the round id as the merged-log
// dedup key; local commits are the reverse.
func (sys *System) logCommitClock(clk int64, req workload.Request, site int, log []int64, rid *fabric.RoundID) {
	if l := sys.walFor(site); l != nil {
		rec := wal.CommitRecord{
			Class: req.Name, Args: req.Args, Site: site,
			Units: req.Units, Log: log, Clock: clk,
		}
		var round wal.RoundID
		if rid != nil {
			round = wal.RoundID{Site: rid.Site, Seq: rid.Seq}
			rec.Round = &round
		} else {
			// Own-delta watermark: the absolute post-commit value of every
			// delta object the request could have written (its own objects
			// plus its units'). Replaying records in file order then
			// reproduces the partition without re-executing the class.
			// AppendCommit encodes the record before it returns and keeps
			// none of it, so the map is the System's, cleared per commit.
			if sys.walWrites == nil {
				sys.walWrites = make(map[string]int64)
			}
			clear(sys.walWrites)
			rec.Writes = sys.walWrites
			sys.markWrites(site, req.Objects)
			for _, id := range req.Units {
				if id >= 0 && id < len(sys.Units) {
					sys.markWrites(site, sys.Units[id].objects)
				}
			}
		}
		_ = l.AppendCommit(rec)
	}
	if !sys.Opts.EnableLog {
		return
	}
	entry := Committed{
		Name:  req.Name,
		Args:  req.Args,
		Site:  site,
		Units: req.Units,
		Log:   log,
		Clock: clk,
		Apply: req.Apply,
	}
	if rid != nil {
		r := *rid
		entry.Round = &r
	}
	sys.CommitLog = append(sys.CommitLog, entry)
}

// markWrites records the site's own delta value of each object in the
// commit watermark being built.
//
//homeo:hotpath
func (sys *System) markWrites(site int, objs []lang.ObjID) {
	st := sys.Stores[site]
	for _, obj := range objs {
		name := sys.deltaName(obj, site)
		sys.walWrites[string(name)] = st.Get(name)
	}
}
