package homeo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
	"repro/internal/workload"
)

// Session submits transactions to the cluster. Sessions are cheap and
// safe for concurrent use; a session created without a site spreads its
// submissions round-robin across sites.
type Session struct {
	c    *Cluster
	site int // -1 = round-robin
}

// Session returns a round-robin session.
func (c *Cluster) Session() *Session { return c.anySite }

// SessionAt returns a session pinned to one site (a client talking to its
// local replica). On a multi-process cluster only the process's own site
// accepts submissions — clients reach other sites through their own
// processes.
//
// A session holds nothing but its site, so the cluster keeps one per site
// and hands the same one to every caller, without a lock: the /v1/txn path
// asks for one per request.
func (c *Cluster) SessionAt(site int) (*Session, error) {
	self := c.SelfSite()
	if site < 0 || self < 0 && site >= len(c.sessions) {
		return nil, fmt.Errorf("homeo: site %d out of range [0,%d)", site, len(c.sessions))
	}
	if self >= 0 && site != self {
		return nil, fmt.Errorf("homeo: site %d is served by another process (this process owns site %d)", site, self)
	}
	return c.sessions[site], nil
}

// Result is the observable outcome of one submission.
type Result struct {
	// Class names the transaction class ("" for base-workload draws until
	// the draw resolves its request name).
	Class string
	// Args are the invocation arguments.
	Args []int64
	// Site is the executing site.
	Site int
	// Committed reports whether the transaction's effects are installed.
	Committed bool
	// Synced reports whether committing required a treaty
	// synchronization round.
	Synced bool
	// Latency is the submission's runtime latency (virtual on
	// RuntimeSim).
	Latency time.Duration
	// Log is the transaction's observable print log (SELECT results for
	// SQL classes).
	Log []int64
}

// Submit executes one invocation of a registered class and waits for its
// outcome. On RuntimeLive the context's deadline/cancellation is honored:
// when it fires first, Submit returns ErrTimeout while the transaction
// finishes in the background (it may still commit). On RuntimeSim the
// submission runs to completion in virtual time and the context is
// checked only on entry.
//
// Errors are classified by the package taxonomy: ErrDropped (cluster
// draining or MaxInflight reached — never started), ErrLivelocked
// (retry budget exhausted), ErrTimeout, ErrAborted.
//
//homeo:hotpath
func (s *Session) Submit(ctx context.Context, class *TxnClass, args ...int64) (Result, error) {
	if class == nil {
		return Result{}, errNilClass
	}
	if class.c != s.c {
		return Result{}, errForeignClass(class.Name())
	}
	req, err := class.wc.Invoke(s.c.reg.Units(class.wc), args)
	if err != nil {
		return Result{}, wrapAborted(err)
	}
	return s.submit(ctx, req)
}

// Cold-path error constructors, kept out of the //homeo:hotpath body:
// formatting allocates, and these run only on rejected submissions.

var errNilClass = fmt.Errorf("%w: nil class", ErrAborted)

func errForeignClass(name string) error {
	return fmt.Errorf("%w: class %s belongs to a different cluster", ErrAborted, name)
}

func wrapAborted(err error) error { return fmt.Errorf("%w: %v", ErrAborted, err) }

// SubmitMix draws the next request from the base workload's mix (or a
// random registered class when the cluster has no base workload) and
// executes it — the serving path for benchmark-style traffic.
func (s *Session) SubmitMix(ctx context.Context) (Result, error) {
	site := s.pickSite()
	var (
		req   workload.Request
		empty bool
	)
	s.c.locked(func() {
		if !s.c.reg.CanDraw() {
			empty = true
			return
		}
		req = s.c.reg.Next(s.c.rng, site)
	})
	if empty {
		return Result{}, fmt.Errorf("%w: cluster has no base workload and no registered classes to draw from", ErrAborted)
	}
	return s.submitAt(ctx, site, req)
}

func (s *Session) pickSite() int {
	if s.site >= 0 {
		return s.site
	}
	if self := s.c.SelfSite(); self >= 0 {
		// Multi-process: this process executes only its own site.
		return self
	}
	// Round-robin over a single process's sites, which never change.
	return int(s.c.nextSite.Add(1)-1) % len(s.c.sessions)
}

func (s *Session) submit(ctx context.Context, req workload.Request) (Result, error) {
	return s.submitAt(ctx, s.pickSite(), req)
}

// pendingSub is one in-flight submission's state, pooled so the steady
// Submit path reuses the completion channel, the spawned body closure
// (a method value bound once), and the result scratch. A sub returns to
// the pool only on paths where the body has fully finished (the done
// signal is sent after every other field write); abandoned bodies
// (context timeout, sim deadlock drain) keep their sub and leave it to
// the garbage collector.
type pendingSub struct {
	c        *Cluster
	site     int
	req      workload.Request
	res      Result
	execErr  error
	done     chan struct{} // buffered(1): body sends, waiter receives
	released atomic.Bool
	bodyFn   func(rt.Proc)
}

var subPool = sync.Pool{New: func() any {
	sub := &pendingSub{done: make(chan struct{}, 1)}
	sub.bodyFn = sub.body
	return sub
}}

// release frees the cluster's inflight slot exactly once: normally from
// the process body, but also from the sim deadlock path (whose abandoned
// process may still run its deferred release when Close drains it).
func (sub *pendingSub) release() {
	if sub.released.CompareAndSwap(false, true) {
		sub.c.inflight.Add(-1)
	}
}

func (sub *pendingSub) body(p rt.Proc) {
	defer func() { sub.done <- struct{}{} }()
	defer sub.release()
	c := sub.c
	start := p.Now()
	out, err := c.sys.ExecRequest(p, sub.site, sub.req)
	sub.res.Latency = time.Duration(p.Now() - start)
	if err != nil {
		sub.execErr = classifyExec(err)
		c.sys.Col.RecordDropped()
		return
	}
	sub.res.Committed = out.Committed
	sub.res.Synced = out.Synced
	sub.res.Log = out.Log
	if out.Committed {
		c.sys.Col.RecordCommit(rt.Duration(sub.res.Latency), out.Synced)
	}
}

// recycle returns a sub whose body has fully finished to the pool,
// dropping references the next submission must not retain.
func (sub *pendingSub) recycle() {
	sub.c = nil
	sub.req = workload.Request{}
	sub.res = Result{}
	sub.execErr = nil
	subPool.Put(sub)
}

// submitAt runs the request at the given site under the cluster's
// runtime, recording the outcome in the metrics collector exactly like
// the closed-loop client path.
func (s *Session) submitAt(ctx context.Context, site int, req workload.Request) (Result, error) {
	c := s.c
	if c.Draining() {
		return Result{}, fmt.Errorf("%w: cluster is draining", ErrDropped)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	if n := c.inflight.Add(1); n > int64(c.opts.MaxInflight) {
		c.inflight.Add(-1)
		return Result{}, fmt.Errorf("%w: %d submissions in flight (MaxInflight %d)",
			ErrDropped, n-1, c.opts.MaxInflight)
	}

	sub := subPool.Get().(*pendingSub)
	sub.c, sub.site, sub.req = c, site, req
	sub.res = Result{Class: req.Name, Args: req.Args, Site: site}
	sub.execErr = nil
	sub.released.Store(false)
	id := int(c.nextID.Add(1))

	if c.sim != nil {
		// Deterministic path: run the submission to completion in virtual
		// time. c.mu serializes submissions (the engine is single-run).
		c.mu.Lock()
		defer c.mu.Unlock()
		c.sim.SetDeadline(0)
		c.sim.Spawn(id, sub.bodyFn)
		c.sim.Run()
		select {
		case <-sub.done:
		default:
			sub.release()
			// The parked body still references sub: do not recycle.
			return Result{}, fmt.Errorf("%w: submission parked with no pending event (deadlocked request)", ErrAborted)
		}
		res, execErr := sub.res, sub.execErr
		sub.recycle()
		return res, execErr
	}

	if !c.live.SpawnOK(id, sub.bodyFn) {
		sub.release()
		sub.recycle() // never spawned: nothing references sub
		return Result{}, fmt.Errorf("%w: cluster is draining", ErrDropped)
	}
	select {
	case <-sub.done:
		res, execErr := sub.res, sub.execErr
		sub.recycle()
		return res, execErr
	case <-ctx.Done():
		// The process keeps running (and keeps its metrics accounting);
		// only this caller stops waiting. It still holds sub: do not
		// recycle.
		//homeo:leak abandoned sub stays with its running body; GC reclaims it
		return Result{}, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
}
