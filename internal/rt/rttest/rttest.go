// Package rttest is a conformance suite for implementations of the
// internal/rt runtime contract. Both runtimes run it: internal/sim (the
// deterministic discrete-event simulator) and internal/rtlive (the
// wall-clock serving runtime). The suite checks the behaviors the
// protocol core depends on: park/wake token semantics, stale-wake
// (timer-cancellation) no-ops, bounded-resource exclusion and FIFO
// fairness among waiters, deadline-bounded runs, and Drain unwinding
// deferred cleanup.
//
// All shared test state is written from process or timer context (under
// the runtime's execution right) and copied into result fields by
// processes before they finish, so reads after Run/Drain are ordered for
// the race detector on the live runtime too.
package rttest

import (
	"testing"

	"repro/internal/rt"
)

// Factory builds a fresh runtime for one subtest.
type Factory func() rt.Runtime

// Run executes the conformance suite against runtimes built by f.
//
// Durations are real milliseconds on live runtimes; keep them small
// enough for CI but large enough to dominate scheduling noise.
func Run(t *testing.T, f Factory) {
	t.Run("SleepAdvancesClock", func(t *testing.T) { testSleep(t, f()) })
	t.Run("ParkWake", func(t *testing.T) { testParkWake(t, f()) })
	t.Run("StaleWakeIsNoop", func(t *testing.T) { testStaleWake(t, f()) })
	t.Run("ResourceExclusion", func(t *testing.T) { testResourceExclusion(t, f()) })
	t.Run("ResourceFIFO", func(t *testing.T) { testResourceFIFO(t, f()) })
	t.Run("DeadlineAndDrain", func(t *testing.T) { testDeadlineDrain(t, f()) })
}

func testSleep(t *testing.T, r rt.Runtime) {
	var start, wake rt.Time
	r.Spawn(0, func(p rt.Proc) {
		start = p.Now()
		p.Sleep(20 * rt.Millisecond)
		wake = p.Now()
	})
	r.Run()
	if rt.Duration(wake-start) < 20*rt.Millisecond {
		t.Fatalf("slept %v, want >= 20ms", rt.Duration(wake-start))
	}
}

func testParkWake(t *testing.T, r rt.Runtime) {
	// A parks and publishes its wake token; B wakes it through a
	// scheduled event, as the protocol's lock grants and treaty-round
	// wakes do.
	var (
		a      rt.Proc
		token  int64
		ready  bool
		woken  bool
		result struct{ woken, wakeTook bool }
	)
	r.Spawn(0, func(p rt.Proc) {
		a = p
		token = p.PrepPark()
		ready = true
		p.Park()
		woken = true
	})
	r.Spawn(1, func(p rt.Proc) {
		for !ready {
			p.Sleep(2 * rt.Millisecond)
		}
		r.At(r.Now(), func() {
			result.wakeTook = a.WakeIf(token)
		})
		// Wait until A has resumed, then record what it saw.
		for !woken {
			p.Sleep(2 * rt.Millisecond)
		}
		result.woken = woken
	})
	r.Run()
	if !result.wakeTook {
		t.Fatal("WakeIf with a live token reported no effect")
	}
	if !result.woken {
		t.Fatal("parked process did not resume after WakeIf")
	}
}

func testStaleWake(t *testing.T, r rt.Runtime) {
	// A timer holding a stale token must not wake the process: after the
	// first wake the token is invalidated (this is how a granted lock's
	// pending timeout timer becomes a no-op).
	var result struct {
		staleSeen bool
		staleTook bool
		elapsed   rt.Duration
	}
	r.Spawn(0, func(p rt.Proc) {
		start := p.Now()
		token := p.PrepPark()
		r.After(5*rt.Millisecond, func() { p.WakeIf(token) })
		r.After(25*rt.Millisecond, func() {
			result.staleSeen = true
			result.staleTook = p.WakeIf(token) // stale: token consumed at 5ms
		})
		p.Park()
		// Sleep past the stale timer; a spurious wake would cut this
		// short. Then wait for the stale timer to really have fired (on a
		// loaded machine it can lag) so the assertions read settled state.
		p.Sleep(40 * rt.Millisecond)
		for !result.staleSeen {
			p.Sleep(5 * rt.Millisecond)
		}
		result.elapsed = rt.Duration(p.Now() - start)
	})
	r.Run()
	if !result.staleSeen {
		t.Fatal("stale timer never fired")
	}
	if result.staleTook {
		t.Fatal("stale token woke the process")
	}
	if result.elapsed < 45*rt.Millisecond {
		t.Fatalf("process ran %v, want >= 45ms (stale wake must not cut the sleep short)", result.elapsed)
	}
}

func testResourceExclusion(t *testing.T, r rt.Runtime) {
	const cap, procs = 2, 6
	res := r.NewResource(cap)
	var (
		inUse, maxInUse int
		done            int
	)
	for i := 0; i < procs; i++ {
		r.Spawn(i, func(p rt.Proc) {
			res.Acquire(p)
			inUse++
			if inUse > maxInUse {
				maxInUse = inUse
			}
			p.Sleep(5 * rt.Millisecond)
			inUse--
			res.Release()
			done++
		})
	}
	r.Run()
	if done != procs {
		t.Fatalf("%d/%d processes completed", done, procs)
	}
	if maxInUse > cap {
		t.Fatalf("max concurrent holders = %d, capacity %d", maxInUse, cap)
	}
	if maxInUse != cap {
		t.Fatalf("max concurrent holders = %d, want the full capacity %d", maxInUse, cap)
	}
	if res.InUse() != 0 {
		t.Fatalf("in-use = %d after all releases", res.InUse())
	}
}

func testResourceFIFO(t *testing.T, r rt.Runtime) {
	// With a capacity-1 resource and staggered arrivals, slots are
	// granted in arrival order.
	const procs = 4
	res := r.NewResource(1)
	var order []int
	for i := 0; i < procs; i++ {
		i := i
		r.Spawn(i, func(p rt.Proc) {
			// Arrivals at 0, 30, 60 and 90 ms; each holder keeps the slot
			// 75 ms. The first release (75 ms) wakes a waiter that must
			// take the slot before the fresh arrival at 90 ms competes for
			// it; every gap is 15 ms, well beyond scheduling noise.
			p.Sleep(rt.Duration(i*30) * rt.Millisecond)
			res.Acquire(p)
			order = append(order, i)
			p.Sleep(75 * rt.Millisecond)
			res.Release()
		})
	}
	r.Run()
	if len(order) != procs {
		t.Fatalf("%d/%d acquisitions", len(order), procs)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

func testDeadlineDrain(t *testing.T, r rt.Runtime) {
	var cleanup int
	r.Spawn(0, func(p rt.Proc) {
		defer func() { cleanup++ }()
		p.Sleep(10 * rt.Second) // far past the deadline
	})
	r.Spawn(1, func(p rt.Proc) {
		defer func() { cleanup++ }()
		p.PrepPark()
		p.Park() // parked forever; only Drain can end it
	})
	r.SetDeadline(rt.Time(30 * rt.Millisecond))
	end := r.Run()
	if end >= rt.Time(rt.Second) {
		t.Fatalf("run ended at %v, deadline was 30ms", rt.Duration(end))
	}
	r.Drain()
	if r.Live() != 0 {
		t.Fatalf("live = %d after drain, want 0", r.Live())
	}
	if cleanup != 2 {
		t.Fatalf("deferred cleanup ran %d times, want 2 (drain must unwind stacks)", cleanup)
	}
}
