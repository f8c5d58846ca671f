package rtlive_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestExecBridgesExternalGoroutines: SpawnOK runs work from plain
// goroutines (the HTTP handler path) under the execution contract —
// mutations from concurrently spawned processes never race.
func TestExecBridgesExternalGoroutines(t *testing.T) {
	r := rtlive.New(1)
	const n = 16
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			if !r.SpawnOK(i, func(p rt.Proc) {
				defer wg.Done()
				p.Sleep(2 * rt.Millisecond)
				counter++ // unsynchronized on purpose: the contract serializes it
			}) {
				t.Error("SpawnOK refused while not draining")
				wg.Done()
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
// Proc, which keeps its goroutine and its sleep timer, so a steady stream
// of spawns allocates nothing of the runtime's own.
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
	if allocs := testing.AllocsPerRun(200, func() { spawnWait(r, 0, body) }); allocs > 3 {
		// spawnWait's own channel and closure.
		t.Errorf("steady-state Spawn+Sleep allocates %v per run, want at most 3", allocs)
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

// settle waits until at most want goroutines beyond base are left (an
// exiting worker is counted until it has returned), and reports the count.
func settle(base, want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutineID reads the calling goroutine's id from its stack header,
// "goroutine N [...".
func goroutineID() string {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	return s[:strings.IndexByte(s, ' ')]
}

// TestSpawnReusesGoroutine: a thousand processes one after another run on
// one goroutine between them, and Drain leaves none behind.
func TestSpawnReusesGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	r := rtlive.New(1)
	ran := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		spawnWait(r, i, func(p rt.Proc) { ran[goroutineID()] = true; p.Sleep(1) })
	}
	if len(ran) > 3 {
		t.Errorf("1000 sequential Spawns ran on %d goroutines, want at most 3", len(ran))
	}
	if n := runtime.NumGoroutine() - base; n > 3 {
		t.Errorf("1000 sequential Spawns left %d goroutines, want at most 3", n)
	}
	r.Drain()
	if n := settle(base, 0); n > 0 {
		t.Errorf("%d goroutines left after Drain, want 0", n)
	}
}

// TestBurstKeepsAtMostMaxFree: after 2×MaxFree processes ran at once, at
// most MaxFree workers stay parked for reuse, and Drain reaps those.
func TestBurstKeepsAtMostMaxFree(t *testing.T) {
	base := runtime.NumGoroutine()
	r := rtlive.New(1)
	const n = 2 * rtlive.MaxFree
	var (
		wg     sync.WaitGroup
		parked []rt.Proc
		tokens []int64
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		r.Spawn(i, func(p rt.Proc) {
			defer wg.Done()
			parked, tokens = append(parked, p), append(tokens, p.PrepPark())
			p.Park()
		})
	}
	// Every process is parked at once, so each has a Proc of its own.
	for all := false; !all; {
		r.Locked(func() { all = len(parked) == n })
		runtime.Gosched()
	}
	r.Locked(func() {
		for i, p := range parked {
			p.WakeIf(tokens[i])
		}
	})
	wg.Wait()
	for r.Live() != 0 {
		runtime.Gosched()
	}
	if idle := settle(base, rtlive.MaxFree); idle > rtlive.MaxFree {
		t.Errorf("%d goroutines parked after a burst of %d, want at most %d", idle, n, rtlive.MaxFree)
	}
	r.Drain()
	if left := settle(base, 0); left > 0 {
		t.Errorf("%d goroutines left after Drain, want 0", left)
	}
}

// TestHandedOverBeforeKill: a function handed to a free Proc that Drain
// kills before the function starts still runs, into its cancellation at
// its first park, so its deferred cleanup runs and Drain returns. With
// one processor the worker cannot wake between the hand-over and the
// kill, which is the order that matters.
func TestHandedOverBeforeKill(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for round := 0; round < 20; round++ {
		r := rtlive.New(1)
		spawnWait(r, 0, func(p rt.Proc) {}) // one Proc on the free list
		started, cleaned := false, false
		if !r.SpawnOK(1, func(p rt.Proc) {
			started = true
			defer func() { cleaned = true }()
			p.Sleep(10 * rt.Second)
			t.Error("a killed function woke normally")
		}) {
			t.Fatal("SpawnOK refused while not draining")
		}
		drained := make(chan struct{})
		go func() { r.Drain(); close(drained) }()
		select {
		case <-drained:
		case <-time.After(5 * time.Second):
			t.Fatal("Drain hung on a function handed over before the kill")
		}
		if !started || !cleaned {
			t.Fatalf("round %d: started=%v cleaned=%v, want the function run into its cancellation", round, started, cleaned)
		}
	}
}
