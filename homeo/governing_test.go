package homeo_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/homeo"
	"repro/internal/workload"
)

// TestGoverningSetUnderConcurrentRegistration: Session.Submit reads a
// class's governing set without a lock while registrations change it.
// Submissions of class A run throughout a batch the registry refuses —
// one of its classes overlaps A, another repeats A's name — and a batch
// that registers an overlapping class B. A request built after the refusal
// checks only the units it checked before; one built after B registers
// checks B's unit too. Meant for -race.
func TestGoverningSetUnderConcurrentRegistration(t *testing.T) {
	c, err := homeo.New(homeo.Options{
		Runtime:       homeo.RuntimeLive,
		RTT:           time.Millisecond,
		LocalExecTime: 20 * time.Microsecond,
		EnableLog:     true,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.Register(homeo.ClassSpec{L: depositSrc, Initial: map[string]int64{"acct": 1000}})
	if err != nil {
		t.Fatal(err)
	}
	// Registrations run on this goroutine only, so the registry's name
	// index may be read here; the submitters read nothing but the set.
	reg := c.System().W.(*workload.Registry)
	wa := reg.Class(a.Name())
	before := reg.Units(wa)
	if len(before) != 1 || before[0] != wa.Unit() {
		t.Fatalf("A governed by %v, want only its own unit %d", before, wa.Unit())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var submitted atomic.Int64
	stop := make(chan struct{})
	errc := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			sess := c.Session()
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				if _, err := sess.Submit(ctx, a, 1); err != nil {
					errc <- err
					return
				}
				submitted.Add(1)
			}
		}()
	}
	waitFor := func(n int64) {
		for submitted.Load() < n && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(10)

	spend := strings.NewReplacer("bal", "acct", "Withdraw", "Spend").Replace(withdrawSrc)
	bounds := map[string][2]int64{"n": {1, 5}}
	_, err = c.RegisterBatch([]homeo.ClassSpec{
		{L: spend, Bounds: bounds},
		{L: depositSrc},
	})
	if !errors.Is(err, workload.ErrDuplicateClass) {
		t.Fatalf("batch repeating A's name: %v, want a duplicate-class refusal", err)
	}
	if got := reg.Units(wa); !slices.Equal(got, before) {
		t.Fatalf("after the refused batch A is governed by %v, want %v", got, before)
	}
	waitFor(submitted.Load() + 10)

	ts, err := c.RegisterBatch([]homeo.ClassSpec{
		{L: spend, Bounds: bounds},
		{L: strings.ReplaceAll(withdrawSrc, "Withdraw", "Other"), Bounds: bounds, Initial: map[string]int64{"bal": 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wb := reg.Class(ts[0].Name())
	req, err := wa.Invoke(reg.Units(wa), []int64{1}) // what Submit builds
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{wa.Unit(), wb.Unit()}; !slices.Equal(req.Units, want) {
		t.Fatalf("a request of A built after B registered checks %v, want %v", req.Units, want)
	}
	if got := reg.Units(reg.Class(ts[1].Name())); len(got) != 1 {
		t.Fatalf("the batch's disjoint class is governed by %v, want its own unit alone", got)
	}
	if !slices.Equal(before, []int{wa.Unit()}) {
		t.Fatalf("B's registration rewrote the set a request held: %v", before)
	}
	waitFor(submitted.Load() + 10)

	close(stop)
	for g := 0; g < 2; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
}
