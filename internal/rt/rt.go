// Package rt defines the runtime abstraction the protocol core programs
// against. The homeostasis protocol (treaties, disconnected execution,
// the cleanup phase) is engine-independent: it needs a clock, cooperative
// processes with park/wake, bounded resources, and timers — nothing about
// whether time is virtual or real. This package captures exactly that
// contract so the same store, protocol, and baseline code runs unchanged
// on two runtimes:
//
//   - internal/sim: the deterministic discrete-event simulator. Time is
//     virtual, exactly one process runs at a time, and runs are exactly
//     reproducible (the repository's experiment goldens depend on this).
//   - internal/rtlive: a wall-clock runtime backed by real goroutines,
//     sync.Cond, and time.Timer, used by cmd/homeostasis-serve to serve
//     real traffic.
//
// # Execution contract
//
// Code spawned through Runtime.Spawn holds the runtime's execution right
// while it runs: at most one spawned process executes protocol code at
// any moment, and the right is released only at park points (Sleep, Park,
// Resource.Acquire waits). The simulator provides this by cooperative
// scheduling; the live runtime provides it with a scheduler lock released
// while a process waits. Protocol state shared between processes (lock
// tables, treaty units, metrics) therefore needs no further locking, and
// any code sequence without a park point is atomic with respect to other
// processes on both runtimes.
//
// Functions passed to At/After run with the same execution right (the
// simulator runs them on the engine goroutine; the live runtime runs them
// holding the scheduler lock), so timer callbacks may inspect and update
// shared protocol state and wake processes via Proc.WakeIf.
//
// # Park/wake protocol
//
// A process parks in three steps: call PrepPark to obtain a wake token,
// schedule whatever events should wake it (passing the token), then call
// Park. A waker calls WakeIf(token) from a timer/event callback; the wake
// takes effect only if the process is still parked with that exact token,
// so stale wakes (a lock grant racing a timeout timer, say) are no-ops.
// Every successful wake invalidates the token.
package rt

import (
	"fmt"
	"math/rand"
)

// Time is a runtime timestamp in nanoseconds since the runtime started
// (virtual in the simulator, wall-clock in the live runtime).
type Time int64

// Duration is a time span in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(d))
}

// Seconds converts the duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Proc is a schedulable process. All methods except WakeIf must be called
// from the process's own execution context; WakeIf must be called from a
// timer/event callback (see the package comment).
type Proc interface {
	// Now returns the current runtime time.
	Now() Time
	// Sleep suspends the process for d.
	Sleep(d Duration)
	// PrepPark marks the process as about to park and returns the wake
	// token. Schedule wake events, then call Park.
	PrepPark() int64
	// Park yields until another event wakes the process via WakeIf with
	// the token PrepPark returned.
	Park()
	// WakeIf resumes the process if it is still parked with the given
	// token, reporting whether the wake took effect.
	WakeIf(token int64) bool
	// Token returns the process's current park token, for deferred wakes
	// of a process known to be parked.
	Token() int64
}

// Resource is a counting semaphore: a bounded resource such as a site's
// CPU capacity. On the simulator slots are occupied in virtual time; on
// the live runtime Acquire really blocks, so the capacity is a true
// concurrency limit. Both runtimes' NewResource return one: it is touched
// only under the execution right, like all protocol state, and a freed
// slot wakes the oldest waiter through the runtime's At.
type Resource struct {
	r       Runtime
	cap     int
	inUse   int
	waiters []Proc
}

// NewResource creates a resource of the given capacity on r.
func NewResource(r Runtime, capacity int) *Resource {
	return &Resource{r: r, cap: capacity}
}

// Acquire blocks the calling process until a slot is free and takes it.
func (s *Resource) Acquire(p Proc) {
	for s.inUse >= s.cap {
		s.waiters = append(s.waiters, p)
		p.PrepPark()
		p.Park()
	}
	s.inUse++
}

// Release frees a slot and wakes the oldest waiter.
func (s *Resource) Release() {
	s.inUse--
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		token := w.Token()
		s.r.At(s.r.Now(), func() { w.WakeIf(token) })
	}
}

// InUse returns the number of held slots.
func (s *Resource) InUse() int { return s.inUse }

// Runtime is the execution engine the protocol core runs on.
type Runtime interface {
	// Now returns the current runtime time.
	Now() Time
	// Rand returns the runtime's seeded random stream. It must only be
	// used from process or timer-callback context.
	Rand() *rand.Rand
	// At schedules fn to run at the given time (clamped to now).
	At(t Time, fn func())
	// After schedules fn to run after d elapses.
	After(d Duration, fn func())
	// Spawn starts a new process running fn. The id is informational
	// (used for deterministic per-client seeding).
	Spawn(id int, fn func(p Proc))
	// NewResource creates a bounded resource with the given capacity.
	NewResource(capacity int) *Resource
	// SetDeadline bounds Run: the runtime stops processing once time
	// would pass t (zero means no deadline).
	SetDeadline(t Time)
	// Run executes until quiescence or the deadline: the simulator pumps
	// its event loop; the live runtime blocks in real time. It returns
	// the time it stopped at.
	Run() Time
	// Drain terminates every process that has not finished (parked
	// processes are woken into a cancellation that unwinds their stack,
	// running deferred cleanup). Call after Run to avoid leaking
	// processes across runs.
	Drain()
	// Live returns the number of processes that have started but not
	// finished (parked processes included).
	Live() int
}
