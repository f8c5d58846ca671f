// Package sim is a deterministic discrete-event simulation engine with
// cooperative processes. It replaces the paper's EC2 deployment: virtual
// time advances only through scheduled events, so experiments with
// hundreds of simulated seconds of WAN latency run in milliseconds of
// wall-clock time and are exactly reproducible.
//
// Concurrency model: exactly one goroutine (either the engine or a single
// process) runs at any moment. A process runs until it parks (Sleep,
// channel receive, resource acquire), at which point control returns to
// the engine, which pops the next event off the virtual-time heap. Events
// at equal times fire in schedule order, making runs deterministic.
//
// The engine is one implementation of the internal/rt runtime contract
// (the other is internal/rtlive's wall-clock runtime); the protocol core
// programs against rt and runs unchanged on either.
package sim

import (
	"container/heap"
	"math/rand"

	"repro/internal/rt"
)

// Time is virtual time in nanoseconds since simulation start.
type Time = rt.Time

// Duration is a virtual time span in nanoseconds.
type Duration = rt.Duration

// Common durations.
const (
	Nanosecond  = rt.Nanosecond
	Microsecond = rt.Microsecond
	Millisecond = rt.Millisecond
	Second      = rt.Second
)

// Compile-time checks that the engine implements the runtime contract.
var (
	_ rt.Runtime = (*Engine)(nil)
	_ rt.Proc    = (*Proc)(nil)
)

// event is one scheduled occurrence: either a callback (fn) or, for the
// allocation-free Sleep wake path, a direct (proc, token) wake target.
type event struct {
	t     Time
	seq   int64
	fn    func()
	proc  *Proc
	token int64
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type ctlMsg int

const (
	ctlParked ctlMsg = iota
	ctlDone
)

// Engine owns the virtual clock and event queue.
type Engine struct {
	now    Time
	events eventHeap
	seq    int64
	ctl    chan ctlMsg
	rng    *rand.Rand
	live   int // processes started and not finished

	// procs holds exactly those processes, each at its slot; freeProcs the
	// finished, un-killed ones, whose Proc and resume channel the next
	// Spawn takes over.
	procs     []*Proc
	freeProcs []*Proc

	// free recycles fired events so the steady-state schedule/fire cycle
	// (one wake per Sleep) does not allocate.
	free []*event

	// Deadline, when nonzero, stops Run once virtual time would pass it.
	Deadline Time
}

// NewEngine returns an engine whose random stream is seeded
// deterministically.
func NewEngine(seed int64) *Engine {
	return &Engine{
		ctl: make(chan ctlMsg),
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc pops a recycled event or allocates a fresh one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// At schedules fn to run at the given virtual time (clamped to now).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.alloc()
	ev.t, ev.seq, ev.fn = t, e.seq, fn
	heap.Push(&e.events, ev)
}

// wakeAt schedules a direct process wake — Sleep's path, which carries no
// closure so a recycled event makes it allocation-free.
func (e *Engine) wakeAt(t Time, p *Proc, token int64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.alloc()
	ev.t, ev.seq, ev.proc, ev.token = t, e.seq, p, token
	heap.Push(&e.events, ev)
}

// After schedules fn to run after d elapses.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+Time(d), fn) }

// Proc is a cooperative process. All Proc methods must be called from the
// process's own goroutine.
type Proc struct {
	e  *Engine
	ID int
	fn func(p rt.Proc)
	// runFn is run as a func value, bound when the Proc is built: a go
	// statement on a method call would wrap it in a new closure per Spawn.
	runFn  func()
	slot   int // index in e.procs
	resume chan struct{}
	parked bool
	killed bool
	token  int64
}

type killedError struct{}

func (killedError) Error() string { return "sim: process killed by Drain" }

// Spawn starts a new process running fn at the current virtual time, on
// a recycled Proc when one is free. A process waiting to start is parked
// like any other: its start is a wake event, and Drain finds it parked.
func (e *Engine) Spawn(id int, fn func(p rt.Proc)) {
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		p = e.freeProcs[n-1]
		e.freeProcs[n-1] = nil
		e.freeProcs = e.freeProcs[:n-1]
	} else {
		p = &Proc{e: e, resume: make(chan struct{})}
		p.runFn = p.run
	}
	p.ID, p.fn, p.slot = id, fn, len(e.procs)
	e.live++
	e.procs = append(e.procs, p)
	go p.runFn()
	e.wakeAt(e.now, p, p.prepPark())
}

// run is the process goroutine: wait for the start wake, execute fn,
// absorb the cancellation panic of a kill, and report done to the engine.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedError); !ok {
				panic(r)
			}
		}
		p.e.ctl <- ctlDone
	}()
	<-p.resume
	if p.killed {
		return
	}
	p.fn(p)
}

// retire forgets a finished process, so a long simulation does not
// accumulate dead entries, and keeps its Proc for the next Spawn unless it
// was killed. The token moves on, so a wake still aimed at the finished
// function cannot reach the next one.
func (e *Engine) retire(p *Proc) {
	last := e.procs[len(e.procs)-1]
	e.procs[p.slot], last.slot = last, p.slot
	e.procs[len(e.procs)-1] = nil
	e.procs = e.procs[:len(e.procs)-1]
	if !p.killed {
		p.fn, p.parked = nil, false
		p.token++
		e.freeProcs = append(e.freeProcs, p)
	}
}

// NewResource creates a counting semaphore on the engine (rt.Runtime).
func (e *Engine) NewResource(capacity int) *rt.Resource { return rt.NewResource(e, capacity) }

// SetDeadline bounds Run (rt.Runtime): virtual time never passes t.
func (e *Engine) SetDeadline(t Time) { e.Deadline = t }

// Drain terminates every process that has not finished: parked processes
// are woken into a cancellation panic recovered by the spawn wrapper, and
// unstarted processes exit immediately. Call after Run returns (at the
// deadline) to avoid leaking goroutines across experiments.
func (e *Engine) Drain() {
	for {
		progress := false
		for i := 0; i < len(e.procs); {
			p := e.procs[i]
			p.killed = true
			if p.parked {
				p.parked = false
				p.token++
				e.resumeProc(p)
				progress = true
			}
			// A process that finished left its slot to another one.
			if i < len(e.procs) && e.procs[i] == p {
				i++
			}
		}
		if !progress {
			return
		}
	}
}

// resumeProc hands control to p and waits until it parks or finishes.
// Must only be called from the engine's goroutine (inside an event fn).
func (e *Engine) resumeProc(p *Proc) {
	p.resume <- struct{}{}
	msg := <-e.ctl
	if msg == ctlDone {
		e.live--
		e.retire(p)
	}
}

// prepPark marks the process as about to park and returns the wake token.
func (p *Proc) prepPark() int64 {
	p.parked = true
	return p.token
}

// park yields control to the engine until woken.
func (p *Proc) park() {
	p.e.ctl <- ctlParked
	<-p.resume
	if p.killed {
		panic(killedError{})
	}
}

// wakeIf resumes the process if it is still parked with the given token.
// Returns whether the wake took effect. Must be called from an event fn.
func (p *Proc) wakeIf(token int64) bool {
	if !p.parked || p.token != token {
		return false
	}
	p.parked = false
	p.token++
	p.e.resumeProc(p)
	return true
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	token := p.prepPark()
	p.e.wakeAt(p.e.now+Time(d), p, token)
	p.park()
}

// Now returns the current virtual time (valid while the process runs).
func (p *Proc) Now() Time { return p.e.Now() }

// Token returns the process's current park token, for building
// synchronization primitives outside this package. Capture it while the
// process is parked and pass it to WakeIf.
func (p *Proc) Token() int64 { return p.token }

// PrepPark marks the process as about to park and returns the wake token,
// for building synchronization primitives outside this package. Call
// Park immediately after scheduling any wake events.
func (p *Proc) PrepPark() int64 { return p.prepPark() }

// Park yields control to the engine until another event wakes the process
// via WakeIf with the token PrepPark returned.
func (p *Proc) Park() { p.park() }

// WakeIf resumes the process if it is still parked with the given token,
// reporting whether the wake took effect. Must be called from an event
// callback (engine context), not from another process.
func (p *Proc) WakeIf(token int64) bool { return p.wakeIf(token) }

// Run processes events until the queue empties or the deadline passes.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		if e.Deadline != 0 && ev.t > e.Deadline {
			e.now = e.Deadline
			return e.now
		}
		e.now = ev.t
		fn, proc, token := ev.fn, ev.proc, ev.token
		ev.fn, ev.proc = nil, nil
		e.free = append(e.free, ev)
		if fn != nil {
			fn()
		} else if proc != nil {
			proc.wakeIf(token)
		}
	}
	return e.now
}

// Live returns the number of processes that have started but not
// finished (parked processes included).
func (e *Engine) Live() int { return e.live }
