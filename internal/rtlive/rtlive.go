// Package rtlive is the wall-clock implementation of the internal/rt
// runtime contract: processes are real goroutines, timers are time.Timer,
// and parking blocks on a sync.Cond, so rt.Resource capacities (site CPU
// caps) and lock timeouts become real concurrency limits. It powers
// cmd/homeostasis-serve, which runs the same protocol core the simulator
// runs — internal/store, internal/homeostasis, and the baselines are
// byte-for-byte shared — against real traffic and real time.
//
// # How the execution contract is provided
//
// The rt contract promises that at most one spawned process executes
// protocol code at a time, with the execution right released at park
// points. The simulator gets this for free from cooperative scheduling;
// this runtime provides it with a scheduler lock: a process holds the
// lock while running, and Park/Sleep/Resource waits release it while
// blocked. Timer callbacks scheduled through At/After also run holding
// the lock. Shared protocol state (lock tables, treaty units, metrics)
// therefore needs no additional synchronization, exactly as on the
// simulator, while real concurrency still happens wherever the protocol
// waits: local execution service times, WAN round trips, lock waits, and
// CPU-slot queues all overlap for real.
//
// The cost is that pure in-memory protocol sections serialize on one
// lock. Those sections are short (a few microseconds of map and slice
// work per transaction) compared to the modeled waits (milliseconds), so
// the serving runtime saturates its configured CPU caps long before the
// scheduler lock saturates a core. Sharding the scheduler lock is the
// natural next step once real deployments outgrow it.
//
// # Recycled processes
//
// A served transaction is one short process, so Spawn builds nothing a
// process can inherit from the one before it. Each Proc owns one goroutine
// for life: it runs the function it is handed, retires, and waits on the
// Proc's own condition variable for the next one, keeping the stack the
// last function grew. A finished Proc — goroutine, park state and sleep
// timer — goes on a free list of at most maxFree, so a burst pins up to
// that many parked goroutines with their stacks; the next Spawn hands its
// function to one under the process-list lock. The park token only ever
// grows, so a wake aimed at a function that has finished can never reach
// the next one to use the Proc; a killed Proc is never reused, and Drain
// reaps the idle ones.
package rtlive

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
)

// Compile-time checks against the runtime contract.
var (
	_ rt.Runtime = (*Runtime)(nil)
	_ rt.Proc    = (*Proc)(nil)
)

// Runtime is a wall-clock rt.Runtime.
type Runtime struct {
	// mu is the scheduler lock (see the package comment). A process runs
	// holding it; park points release it.
	mu    sync.Mutex //homeo:schedlock
	clock func() time.Time
	start time.Time
	rng   *rand.Rand

	// wg tracks functions handed to processes and not yet returned; only
	// deadline-less Run waits on it. workers tracks the Procs' goroutines,
	// which outlive their functions; Drain waits on it, which covers wg,
	// since a worker exits only after its function has returned.
	wg      sync.WaitGroup
	workers sync.WaitGroup

	// procMu guards the process lists: procs holds every running process,
	// each at index Proc.slot, for Drain; free holds finished ones, whose
	// goroutines wait for their next function.
	procMu   sync.Mutex
	procs    []*Proc
	free     []*Proc
	draining bool

	live     atomic.Int64
	deadline atomic.Int64 // rt.Time; 0 = none
}

// wallClock is the package's sole sanctioned wall-clock source; every
// other read goes through a Runtime's injected clock so tests can pin
// time.
var wallClock = time.Now //homeo:wallclock sole clock construction site

// New returns a runtime whose clock starts now and whose random stream is
// seeded deterministically (stream order still depends on real
// scheduling, unlike the simulator's).
func New(seed int64) *Runtime { return NewClocked(seed, wallClock) }

// NewClocked is New with an injected clock source. Timers and sleeps
// still use real time; only Now readings route through clock.
func NewClocked(seed int64, clock func() time.Time) *Runtime {
	return &Runtime{
		clock: clock,
		start: clock(),
		rng:   rand.New(&lockedSource{src: rand.NewSource(seed).(rand.Source64)}),
	}
}

// lockedSource makes the shared rand stream safe for use from timer
// callbacks and processes on different goroutines.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// Now returns nanoseconds of wall-clock time since the runtime started.
func (r *Runtime) Now() rt.Time { return rt.Time(r.clock().Sub(r.start)) }

// Rand returns the runtime's seeded random stream.
func (r *Runtime) Rand() *rand.Rand { return r.rng }

// At schedules fn to run at the given time (clamped to now). The callback
// runs holding the scheduler lock, so it may inspect shared protocol
// state and wake processes, exactly like a simulator event.
func (r *Runtime) At(t rt.Time, fn func()) {
	d := time.Duration(t - r.Now())
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		fn()
	})
}

// After schedules fn to run after d elapses.
func (r *Runtime) After(d rt.Duration, fn func()) { r.At(r.Now()+rt.Time(d), fn) }

// SetDeadline bounds Run (zero means none).
func (r *Runtime) SetDeadline(t rt.Time) { r.deadline.Store(int64(t)) }

// Run blocks in real time: until the deadline when one is set, otherwise
// until every spawned process has finished. Processes run regardless of
// whether Run is called; Run is the driver's barrier, matching the
// simulator's event pump in the protocol's Run path.
func (r *Runtime) Run() rt.Time {
	if d := rt.Time(r.deadline.Load()); d != 0 {
		if wait := time.Duration(d - r.Now()); wait > 0 {
			time.Sleep(wait)
		}
		return r.Now()
	}
	r.wg.Wait()
	return r.Now()
}

// Drain cancels every process that has not finished: parked processes are
// woken into a cancellation panic recovered by the worker (running their
// deferred cleanup), running processes are cancelled at their next park
// point, and idle workers exit. Drain blocks until all process goroutines
// have exited, so after it returns no process touches shared state.
func (r *Runtime) Drain() {
	r.procMu.Lock()
	r.draining = true
	procs := make([]*Proc, 0, len(r.procs)+len(r.free))
	procs = append(append(procs, r.procs...), r.free...)
	r.free = nil
	r.procMu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	r.workers.Wait()
}

// Live returns the number of processes that have started but not
// finished.
func (r *Runtime) Live() int { return int(r.live.Load()) }

// Locked runs fn holding the scheduler lock, for external goroutines that
// need a consistent snapshot of shared protocol state (stats endpoints).
func (r *Runtime) Locked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

type killedError struct{}

func (killedError) Error() string { return "rtlive: process killed by Drain" }

// Proc is a live process: a goroutine that holds the scheduler lock while
// it runs protocol code, and waits for its next function between them.
type Proc struct {
	r    *Runtime
	id   int
	slot int // index in r.procs while running, guarded by r.procMu

	// pmu guards fn/parked/killed; token is guarded by the scheduler lock
	// (all its readers and writers hold it). fn is the function handed to
	// the worker and not yet taken; cond wakes the worker both for it and
	// out of a park.
	pmu    sync.Mutex
	cond   sync.Cond // on pmu
	fn     func(p rt.Proc)
	parked bool
	killed bool
	token  int64

	// sleepTimer is the process's reusable Sleep timer; sleepToken is
	// the park token of the sleep that armed it. Both are accessed only
	// under the scheduler lock (Sleep runs holding it, and the timer
	// callback takes it), so the steady-state Sleep cycle is a timer
	// Reset instead of a fresh timer + closure per call.
	sleepTimer *time.Timer
	sleepToken int64
}

// Spawn starts a new process running fn. If the runtime is draining, the
// process is not started.
func (r *Runtime) Spawn(id int, fn func(p rt.Proc)) { r.spawn(id, fn) }

// SpawnOK is Spawn reporting whether the process started (false when the
// runtime is draining). Callers that need to distinguish an admitted
// submission from a refused one (the serving path's backpressure) use
// this instead of the fire-and-forget contract method.
func (r *Runtime) SpawnOK(id int, fn func(p rt.Proc)) bool { return r.spawn(id, fn) }

// maxFree bounds the finished processes kept for reuse, so a burst does
// not pin its high-water mark of them forever. Each one is a parked
// goroutine with the stack its last function grew.
const maxFree = 1024

// spawn hands fn to a recycled Proc's waiting goroutine, or starts a new
// Proc with its own goroutine when the free list is empty.
//
//homeo:hotpath
func (r *Runtime) spawn(id int, fn func(p rt.Proc)) bool {
	r.procMu.Lock()
	if r.draining {
		r.procMu.Unlock()
		return false
	}
	var p *Proc
	if n := len(r.free); n > 0 {
		p = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		p = &Proc{r: r}
		p.cond.L = &p.pmu
		r.workers.Add(1)
		go p.work()
	}
	p.id, p.slot = id, len(r.procs)
	r.procs = append(r.procs, p)
	// Counted and handed over before procMu is released: Drain takes
	// procMu before it kills anything or waits, so it cannot miss a
	// process admitted before it, nor find this Proc idle once it has fn.
	r.live.Add(1)
	r.wg.Add(1)
	p.pmu.Lock()
	p.fn = fn
	p.cond.Signal()
	p.pmu.Unlock()
	r.procMu.Unlock()
	return true
}

// work is a Proc's goroutine: it waits for a function, runs it, and waits
// again, until the Proc is killed while idle or is not kept for reuse. A
// function handed over before a kill still runs, into the cancellation
// at its first park, so its deferred cleanup runs and wg settles.
//
//homeo:hotpath
func (p *Proc) work() {
	defer p.r.workers.Done()
	for {
		p.pmu.Lock()
		for p.fn == nil && !p.killed {
			p.cond.Wait()
		}
		fn := p.fn
		p.fn = nil
		p.pmu.Unlock()
		if fn == nil || !p.run(fn) {
			return
		}
	}
}

// run executes fn holding the scheduler lock, absorbing the cancellation
// panic of a kill, then retires the process and reports whether the Proc
// was kept for the next Spawn. Bumping the token as fn ends, still under
// the lock, invalidates every wake still aimed at it before the Proc can
// serve another function.
//
//homeo:hotpath
func (p *Proc) run(fn func(p rt.Proc)) bool {
	r := p.r
	p.call(fn)
	kept := r.retire(p)
	r.live.Add(-1)
	r.wg.Done()
	return kept
}

// call is run's part under the scheduler lock.
func (p *Proc) call(fn func(p rt.Proc)) {
	p.r.mu.Lock()
	defer p.r.mu.Unlock()
	defer func() {
		p.token++
		if x := recover(); x != nil {
			if _, ok := x.(killedError); !ok {
				panic(x)
			}
		}
	}()
	fn(p)
}

// retire forgets a finished process, so long-running servers do not
// accumulate dead entries, and keeps its Proc for the next Spawn unless
// the runtime is draining (only Drain kills, after it set draining under
// procMu) or the free list is full; a Proc not kept has its goroutine
// exit.
func (r *Runtime) retire(p *Proc) bool {
	r.procMu.Lock()
	defer r.procMu.Unlock()
	last := r.procs[len(r.procs)-1]
	r.procs[p.slot], last.slot = last, p.slot
	r.procs[len(r.procs)-1] = nil
	r.procs = r.procs[:len(r.procs)-1]
	if r.draining || len(r.free) >= maxFree {
		return false
	}
	r.free = append(r.free, p)
	return true
}

// kill marks the process cancelled and wakes it if parked. The process
// unwinds via a panic at its next (or current) park point.
func (p *Proc) kill() {
	p.pmu.Lock()
	p.killed = true
	p.cond.Broadcast()
	p.pmu.Unlock()
}

// Now returns the current wall-clock runtime time.
func (p *Proc) Now() rt.Time { return p.r.Now() }

// Token returns the current park token. Callers hold the scheduler lock
// per the rt contract.
func (p *Proc) Token() int64 { return p.token }

// PrepPark marks the process as about to park and returns the wake token.
//
//homeo:schedlocked
func (p *Proc) PrepPark() int64 {
	p.pmu.Lock()
	p.parked = true
	p.pmu.Unlock()
	return p.token
}

// Park releases the scheduler lock, blocks until a WakeIf with the
// current token (or cancellation), and reacquires the lock. Deferred
// cleanup after a cancellation therefore still runs under the execution
// contract.
//
//homeo:schedlocked
func (p *Proc) Park() {
	p.r.mu.Unlock()
	p.pmu.Lock()
	for p.parked && !p.killed {
		p.cond.Wait()
	}
	killed := p.killed
	p.parked = false
	p.pmu.Unlock()
	p.r.mu.Lock()
	if killed {
		panic(killedError{})
	}
}

// WakeIf resumes the process if it is still parked with the given token.
// Callers hold the scheduler lock (timer callbacks and running
// processes), which serializes token accesses.
//
//homeo:schedlocked
func (p *Proc) WakeIf(token int64) bool {
	if p.token != token {
		return false
	}
	p.pmu.Lock()
	if !p.parked {
		p.pmu.Unlock()
		return false
	}
	p.parked = false
	p.token++
	p.cond.Broadcast()
	p.pmu.Unlock()
	return true
}

// Sleep suspends the process for d of real time.
//
//homeo:schedlocked
func (p *Proc) Sleep(d rt.Duration) {
	token := p.PrepPark()
	p.sleepToken = token
	wait := time.Duration(d)
	if wait < 0 {
		wait = 0
	}
	if p.sleepTimer == nil {
		p.sleepTimer = time.AfterFunc(wait, p.sleepWake)
	} else {
		// The previous wake ran to completion before this process could
		// re-enter Sleep (the callback releases the scheduler lock only
		// after WakeIf, and Park reacquires it), so Reset never races a
		// pending callback.
		p.sleepTimer.Reset(wait)
	}
	p.Park()
}

// sleepWake is the reusable timer callback for Sleep: like every timer it
// runs under the scheduler lock and wakes the process if it is still
// parked on the sleep that armed the timer.
func (p *Proc) sleepWake() {
	p.r.mu.Lock()
	defer p.r.mu.Unlock()
	p.WakeIf(p.sleepToken)
}

// resource is a counting semaphore whose waiters really block; its
// capacity is a true concurrency limit. State is guarded by the scheduler
// lock like all shared protocol state.
type resource struct {
	r       *Runtime
	cap     int
	inUse   int
	waiters []rt.Proc
}

// NewResource creates a bounded resource with the given capacity.
func (r *Runtime) NewResource(capacity int) rt.Resource {
	return &resource{r: r, cap: capacity}
}

// Acquire blocks the calling process until a slot is free (FIFO among
// waiters) and takes it.
//
//homeo:schedlocked
func (s *resource) Acquire(p rt.Proc) {
	for s.inUse >= s.cap {
		s.waiters = append(s.waiters, p)
		p.PrepPark()
		p.Park()
	}
	s.inUse++
}

// Release frees a slot and wakes the oldest waiter.
//
//homeo:schedlocked
func (s *resource) Release() {
	s.inUse--
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		token := w.Token()
		s.r.At(s.r.Now(), func() { w.WakeIf(token) })
	}
}

// InUse returns the number of held slots.
func (s *resource) InUse() int { return s.inUse }
