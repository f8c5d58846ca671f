package sim

import (
	"repro/internal/rt"

	"testing"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn(0, func(p rt.Proc) {
		p.Sleep(100 * Millisecond)
		wake = p.Now()
	})
	end := e.Run()
	if wake != Time(100*Millisecond) {
		t.Fatalf("woke at %v, want 100ms", Duration(wake))
	}
	if end != wake {
		t.Fatalf("run ended at %v", Duration(end))
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		e := NewEngine(7)
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn(i, func(p rt.Proc) {
				p.Sleep(Duration(10-i) * Millisecond)
				order = append(order, i)
				p.Sleep(Duration(i+1) * Millisecond)
				order = append(order, i+100)
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 10 {
		t.Fatalf("events = %d, want 10", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a, b)
		}
	}
	// Proc 4 sleeps 6ms, wakes first.
	if a[0] != 4 {
		t.Fatalf("first waker = %d, want 4", a[0])
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(i, func(p rt.Proc) {
			p.Sleep(5 * Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestResourceCapacity(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource(2)
	var maxInUse int
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn(i, func(p rt.Proc) {
			r.Acquire(p)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(10 * Millisecond)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	if maxInUse != 2 {
		t.Fatalf("max in use = %d, want 2", maxInUse)
	}
	// Two waves: 10ms and 20ms.
	if finish[0] != Time(10*Millisecond) || finish[3] != Time(20*Millisecond) {
		t.Fatalf("finish times = %v", finish)
	}
}

func TestDeadlineStopsRun(t *testing.T) {
	e := NewEngine(1)
	e.Deadline = Time(100 * Millisecond)
	count := 0
	e.Spawn(0, func(p rt.Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(10 * Millisecond)
			count++
		}
	})
	end := e.Run()
	if end != e.Deadline {
		t.Fatalf("ended at %v, want deadline", Duration(end))
	}
	// Wakeups at 10ms..100ms run (events at exactly the deadline fire);
	// the 110ms event is past the deadline.
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine(1)
	var childRan bool
	e.Spawn(0, func(p rt.Proc) {
		p.Sleep(5 * Millisecond)
		e.Spawn(1, func(q rt.Proc) {
			q.Sleep(5 * Millisecond)
			childRan = true
		})
		p.Sleep(20 * Millisecond)
	})
	e.Run()
	if !childRan {
		t.Fatal("nested spawn did not run")
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d, want 0", e.Live())
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{1500 * Millisecond, "1.500s"},
		{2 * Millisecond, "2.000ms"},
		{3 * Microsecond, "3.000us"},
		{42, "42ns"},
	}
	for _, tc := range cases {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("%d: got %q want %q", int64(tc.d), got, tc.want)
		}
	}
}

func TestDrainKillsParkedAndUnstarted(t *testing.T) {
	e := NewEngine(1)
	e.Deadline = Time(50 * Millisecond)
	var cleanupRan int
	// A proc parked past the deadline.
	e.Spawn(0, func(p rt.Proc) {
		defer func() { cleanupRan++ }()
		p.Sleep(Second)
	})
	// A proc parked with nothing that will ever wake it.
	e.Spawn(1, func(p rt.Proc) {
		defer func() { cleanupRan++ }()
		p.PrepPark()
		p.Park()
	})
	e.Run()
	e.Drain()
	if e.Live() != 0 {
		t.Fatalf("live = %d after drain, want 0", e.Live())
	}
	// Deferred cleanup must have run in killed procs (panic-based unwind).
	if cleanupRan != 2 {
		t.Fatalf("cleanup ran %d times, want 2", cleanupRan)
	}
}
