package rtlive_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/rt"
	"repro/internal/rt/rttest"
	"repro/internal/rtlive"
)

// TestRuntimeConformance runs the shared rt conformance suite against the
// wall-clock runtime: the same contract the simulator pins, now with real
// goroutines, sync.Cond parking, and time.Timer wakes.
func TestRuntimeConformance(t *testing.T) {
	rttest.Run(t, func() rt.Runtime { return rtlive.New(1) })
}

// TestExecBridgesExternalGoroutines: Exec runs work from plain goroutines
// (the HTTP handler path) under the execution contract — mutations from
// concurrently Exec'd processes never race.
func TestExecBridgesExternalGoroutines(t *testing.T) {
	r := rtlive.New(1)
	const n = 16
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !r.Exec(i, func(p rt.Proc) {
				p.Sleep(2 * rt.Millisecond)
				counter++ // unsynchronized on purpose: the contract serializes it
			}) {
				t.Error("Exec refused while not draining")
			}
		}(i)
	}
	wg.Wait()
	// The bare counter++ from 16 goroutines is only safe (and only passes
	// -race) if processes really hold the execution right while running.
	if counter != n {
		t.Fatalf("counter = %d, want %d (broken execution contract)", counter, n)
	}
}

// TestExecRefusedWhileDraining: after Drain, Exec must not hang; it
// reports that the work did not run.
func TestExecRefusedWhileDraining(t *testing.T) {
	r := rtlive.New(1)
	r.Drain()
	if r.Exec(0, func(p rt.Proc) {}) {
		t.Fatal("Exec ran after Drain")
	}
}

// spawnWait runs fn as a process and waits for it to return.
func spawnWait(r *rtlive.Runtime, id int, fn func(p rt.Proc)) {
	done := make(chan struct{})
	r.Spawn(id, func(p rt.Proc) {
		defer close(done)
		fn(p)
	})
	<-done
	for r.Live() != 0 { // the process is retired a moment after fn returns
		runtime.Gosched()
	}
}

// TestSpawnRecyclesProcess: one function after another runs on the same
// Proc, which keeps its sleep timer, so a steady stream of spawns
// allocates only the goroutine's start.
func TestSpawnRecyclesProcess(t *testing.T) {
	r := rtlive.New(1)
	defer r.Drain()
	var first rt.Proc
	spawnWait(r, 0, func(p rt.Proc) { first = p; p.Sleep(1) })
	for i := 1; i < 10; i++ {
		spawnWait(r, i, func(p rt.Proc) {
			if p != first {
				t.Errorf("spawn %d ran on a new Proc", i)
			}
			p.Sleep(1)
		})
	}
	body := func(p rt.Proc) { p.Sleep(1) }
	if allocs := testing.AllocsPerRun(200, func() { spawnWait(r, 0, body) }); allocs > 4 {
		// spawnWait's own channel and closure, and the go statement.
		t.Errorf("steady-state Spawn+Sleep allocates %v per run, want at most 4", allocs)
	}
}

// TestStaleWakeDoesNotCrossFunctions: a wake token taken by one function
// is dead once that function has returned, so it cannot wake the next
// function to run on the same process.
func TestStaleWakeDoesNotCrossFunctions(t *testing.T) {
	r := rtlive.New(1)
	defer r.Drain()
	var (
		proc  rt.Proc
		stale int64
	)
	spawnWait(r, 0, func(p rt.Proc) { proc, stale = p, p.Token() })
	parked := make(chan struct{})
	woke := make(chan struct{})
	r.Spawn(1, func(p rt.Proc) {
		if p != proc {
			t.Error("second function ran on a new Proc")
		}
		token := p.PrepPark()
		if token == stale {
			t.Error("the process reused a park token across functions")
		}
		r.After(20*rt.Millisecond, func() { p.WakeIf(token) })
		close(parked)
		p.Park()
		close(woke)
	})
	<-parked
	r.Locked(func() {
		if proc.WakeIf(stale) {
			t.Error("a stale token woke the next function")
		}
	})
	<-woke
}

// TestDrainWithRecycledProcesses: Drain returns with finished processes
// on the free list and a function asleep, the sleeper's deferred cleanup
// runs, and nothing starts afterwards.
func TestDrainWithRecycledProcesses(t *testing.T) {
	r := rtlive.New(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		r.Spawn(i, func(p rt.Proc) { defer wg.Done(); p.Sleep(rt.Millisecond) })
	}
	wg.Wait()
	asleep := make(chan struct{})
	cleaned := false
	r.Spawn(9, func(p rt.Proc) {
		defer func() { cleaned = true }()
		close(asleep)
		p.Sleep(10 * rt.Second)
		t.Error("a drained sleeper woke normally")
	})
	<-asleep
	r.Drain()
	if !cleaned {
		t.Error("the drained function's deferred cleanup did not run")
	}
	if r.Live() != 0 {
		t.Errorf("live = %d after Drain, want 0", r.Live())
	}
	if r.SpawnOK(10, func(rt.Proc) { t.Error("a function ran after Drain") }) {
		t.Error("SpawnOK admitted a function after Drain")
	}
}

// TestSpawnDrainRace: every function admitted while Drain begins runs to
// its completion signal (possibly into a cancellation), so a caller that
// waits on it is never left hanging.
func TestSpawnDrainRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		r := rtlive.New(1)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					done := make(chan struct{})
					if !r.SpawnOK(i, func(p rt.Proc) {
						defer close(done)
						p.Sleep(rt.Microsecond)
					}) {
						return
					}
					<-done
				}
			}()
		}
		runtime.Gosched()
		r.Drain()
		wg.Wait()
	}
}
