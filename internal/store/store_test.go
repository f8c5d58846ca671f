package store

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/sim"
)

func TestBasicReadWriteCommit(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"x": 10})
	var got int64
	e.Spawn(0, func(p rt.Proc) {
		txn := s.Begin(p)
		v, err := txn.Read("x")
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if err := txn.Write("x", v+1); err != nil {
			t.Errorf("write: %v", err)
		}
		txn.Commit()
		got = s.Get("x")
	})
	e.Run()
	if got != 11 {
		t.Fatalf("x = %d, want 11", got)
	}
	if s.Commits != 1 {
		t.Fatalf("commits = %d", s.Commits)
	}
}

func TestAbortRollsBack(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"x": 10, "y": 20})
	e.Spawn(0, func(p rt.Proc) {
		txn := s.Begin(p)
		_ = txn.Write("x", 99)
		_ = txn.Write("y", 98)
		_ = txn.Write("x", 97) // second write to same object
		txn.Abort()
	})
	e.Run()
	if s.Get("x") != 10 || s.Get("y") != 20 {
		t.Fatalf("rollback failed: x=%d y=%d", s.Get("x"), s.Get("y"))
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"x": 5})
	reads := 0
	for i := 0; i < 3; i++ {
		e.Spawn(i, func(p rt.Proc) {
			txn := s.Begin(p)
			if _, err := txn.Read("x"); err != nil {
				t.Errorf("read: %v", err)
			}
			reads++
			p.Sleep(10 * sim.Millisecond) // hold the S lock
			txn.Commit()
		})
	}
	end := e.Run()
	if reads != 3 {
		t.Fatalf("reads = %d", reads)
	}
	// All three held S locks concurrently: total time 10ms, not 30ms.
	if end != sim.Time(10*sim.Millisecond) {
		t.Fatalf("end = %v, want 10ms (concurrent shared locks)", sim.Duration(end))
	}
}

func TestExclusiveBlocksAndFIFO(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"x": 0})
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(i, func(p rt.Proc) {
			p.Sleep(sim.Duration(i) * sim.Millisecond) // stagger arrival
			txn := s.Begin(p)
			if err := txn.Write("x", int64(i)); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			order = append(order, i)
			p.Sleep(10 * sim.Millisecond)
			txn.Commit()
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v, want FIFO [0 1 2]", order)
	}
	if s.Get("x") != 2 {
		t.Fatalf("x = %d, want 2", s.Get("x"))
	}
}

func TestWriterBlocksReader(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"x": 1})
	var readAt sim.Time
	var readVal int64
	e.Spawn(0, func(p rt.Proc) {
		txn := s.Begin(p)
		_ = txn.Write("x", 42)
		p.Sleep(20 * sim.Millisecond)
		txn.Commit()
	})
	e.Spawn(1, func(p rt.Proc) {
		p.Sleep(1 * sim.Millisecond)
		txn := s.Begin(p)
		v, err := txn.Read("x")
		if err != nil {
			t.Errorf("read: %v", err)
		}
		readAt = p.Now()
		readVal = v
		txn.Commit()
	})
	e.Run()
	if readAt != sim.Time(20*sim.Millisecond) {
		t.Fatalf("reader unblocked at %v, want 20ms", sim.Duration(readAt))
	}
	// Strict 2PL: the reader sees the committed value, never dirty data.
	if readVal != 42 {
		t.Fatalf("read %d, want 42", readVal)
	}
}

func TestLockTimeout(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"x": 1})
	s.LockTimeout = 50 * sim.Millisecond
	var gotErr error
	var at sim.Time
	e.Spawn(0, func(p rt.Proc) {
		txn := s.Begin(p)
		_ = txn.Write("x", 2)
		p.Sleep(sim.Second) // hold X lock a long time
		txn.Commit()
	})
	e.Spawn(1, func(p rt.Proc) {
		p.Sleep(1 * sim.Millisecond)
		txn := s.Begin(p)
		_, gotErr = txn.Read("x")
		at = p.Now()
		txn.Abort()
	})
	e.Run()
	if gotErr != ErrLockTimeout {
		t.Fatalf("err = %v, want ErrLockTimeout", gotErr)
	}
	if at != sim.Time(51*sim.Millisecond) {
		t.Fatalf("timed out at %v, want 51ms", sim.Duration(at))
	}
	if s.Timeouts != 1 {
		t.Fatalf("timeouts = %d", s.Timeouts)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"a": 1, "b": 2})
	var errs []error
	e.Spawn(0, func(p rt.Proc) {
		txn := s.Begin(p)
		_ = txn.Write("a", 10)
		p.Sleep(5 * sim.Millisecond)
		err := txn.Write("b", 11) // t1 holds a, wants b
		if err != nil {
			errs = append(errs, err)
			txn.Abort()
			return
		}
		txn.Commit()
	})
	e.Spawn(1, func(p rt.Proc) {
		p.Sleep(1 * sim.Millisecond)
		txn := s.Begin(p)
		_ = txn.Write("b", 20)
		p.Sleep(10 * sim.Millisecond)
		err := txn.Write("a", 21) // t2 holds b, wants a: cycle
		if err != nil {
			errs = append(errs, err)
			txn.Abort()
			return
		}
		txn.Commit()
	})
	e.Run()
	if len(errs) != 1 || errs[0] != ErrDeadlock {
		t.Fatalf("errs = %v, want one ErrDeadlock", errs)
	}
	if s.Deadlocks != 1 {
		t.Fatalf("deadlocks = %d", s.Deadlocks)
	}
	// The victim aborted; the survivor committed both writes.
	if s.Get("a") == 1 {
		t.Fatal("no transaction won the deadlock")
	}
}

func TestLockUpgrade(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"x": 1})
	e.Spawn(0, func(p rt.Proc) {
		txn := s.Begin(p)
		if _, err := txn.Read("x"); err != nil {
			t.Errorf("read: %v", err)
		}
		// Upgrade S -> X with no other holders: immediate.
		if err := txn.Write("x", 2); err != nil {
			t.Errorf("upgrade write: %v", err)
		}
		txn.Commit()
	})
	e.Run()
	if s.Get("x") != 2 {
		t.Fatalf("x = %d", s.Get("x"))
	}
}

func TestLockUpgradeWaitsForReaders(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"x": 1})
	var writeAt sim.Time
	e.Spawn(0, func(p rt.Proc) {
		txn := s.Begin(p)
		_, _ = txn.Read("x")
		p.Sleep(30 * sim.Millisecond)
		txn.Commit() // release S at 30ms
	})
	e.Spawn(1, func(p rt.Proc) {
		p.Sleep(1 * sim.Millisecond)
		txn := s.Begin(p)
		_, _ = txn.Read("x")                      // shared with proc 0
		if err := txn.Write("x", 7); err != nil { // upgrade: must wait for proc 0
			t.Errorf("upgrade: %v", err)
			txn.Abort()
			return
		}
		writeAt = p.Now()
		txn.Commit()
	})
	e.Run()
	if writeAt != sim.Time(30*sim.Millisecond) {
		t.Fatalf("upgrade completed at %v, want 30ms", sim.Duration(writeAt))
	}
	if s.Get("x") != 7 {
		t.Fatalf("x = %d, want 7", s.Get("x"))
	}
}

// TestSerializabilityCounter: concurrent increments through 2PL never lose
// updates.
func TestSerializabilityCounter(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"ctr": 0})
	const n = 50
	for i := 0; i < n; i++ {
		e.Spawn(i, func(p rt.Proc) {
			// Retry on deadlock/timeout like a real client; upgrade storms
			// are expected under read-then-write contention.
			for attempt := 0; attempt < 10; attempt++ {
				txn := s.Begin(p)
				v, err := txn.Read("ctr")
				if err != nil {
					txn.Abort()
					p.Sleep(sim.Millisecond)
					continue
				}
				p.Sleep(1 * sim.Millisecond) // force interleaving pressure
				if err := txn.Write("ctr", v+1); err != nil {
					txn.Abort()
					p.Sleep(sim.Millisecond)
					continue
				}
				txn.Commit()
				return
			}
		})
	}
	e.Run()
	// All 50 increments must be applied: with 2PL and upgrades, some may
	// deadlock-abort... here all readers acquire S simultaneously and
	// upgrades conflict; ensure committed increments equal commits count.
	if s.Get("ctr") != int64(s.Commits) {
		t.Fatalf("ctr = %d but commits = %d (lost update)", s.Get("ctr"), s.Commits)
	}
	if s.Commits == 0 {
		t.Fatal("no transaction committed")
	}
}

func TestClosedTxnRejected(t *testing.T) {
	e := sim.NewEngine(1)
	s := New(e, lang.Database{"x": 1})
	e.Spawn(0, func(p rt.Proc) {
		txn := s.Begin(p)
		txn.Commit()
		if _, err := txn.Read("x"); err == nil {
			t.Error("read after commit should fail")
		}
		if err := txn.Write("x", 2); err == nil {
			t.Error("write after commit should fail")
		}
		txn.Commit() // double commit is a no-op
		txn.Abort()  // abort after commit is a no-op
	})
	e.Run()
	if s.Commits != 1 || s.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d", s.Commits, s.Aborts)
	}
}
