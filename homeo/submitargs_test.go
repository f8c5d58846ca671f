package homeo_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/wire"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/wal"
)

// A submission runs on its own copy of its arguments: the caller's slice is
// the caller's again the moment Submit returns, and the copy goes back to
// its pool only once the transaction is through. These tests overwrite the
// caller's slice as soon as Submit returns, and — with fabric.ScratchHook
// scribbling over every pooled buffer as it is released — check that the
// commit log, the write-ahead log and the replay hold what was submitted.

// scribbling sets fabric.ScratchHook to fabrictest.Scribble for the rest of
// the test.
func scribbling(t *testing.T) {
	fabric.ScratchHook = fabrictest.Scribble
	t.Cleanup(func() { fabric.ScratchHook = nil })
}

// walArgs returns the arguments of every commit record in site's log
// under dir, in file order.
func walArgs(t *testing.T, dir string, site int) [][]int64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("site-%d.wal", site)))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.Scan(data)
	var out [][]int64
	for _, r := range recs {
		if r.Kind != wal.KindCommit {
			continue
		}
		c, err := r.Commit()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c.Args)
	}
	return out
}

// logArgs returns the arguments of every entry of a wire log, in order.
func logArgs(log []wire.LogEntry) [][]int64 {
	out := make([][]int64, len(log))
	for i, e := range log {
		out[i] = e.Args
	}
	return out
}

// TestSubmitLeavesTheCallersArguments: two processes of a cluster on
// fabric.Sim take withdrawals from one caller that reuses a single argument
// slice and overwrites it the moment each Submit returns. Every process's
// commit log and write-ahead log hold exactly the amounts submitted there —
// round winners, whose arguments travel in the round's install, included —
// and the merged replay holds.
func TestSubmitLeavesTheCallersArguments(t *testing.T) {
	scribbling(t)
	dir := t.TempDir()
	spec := homeo.ClassSpec{L: withdrawSrc, Bounds: map[string][2]int64{"n": {1, 5}}, Initial: map[string]int64{"bal": 200}}
	_, cs, cls := simSites(t, 2, spec, homeo.Options{EnableLog: true, WAL: homeo.WALOptions{Dir: dir}})
	ctx := context.Background()
	want := make([][][]int64, len(cs))
	args := make([]int64, 1)
	synced := 0
	for i := 0; i < 80; i++ {
		k, n := i%2, int64(1+i%5)
		args[0] = n
		res, err := cs[k].Session().Submit(ctx, cls[k], args...)
		args[0] = -1000 - n
		if err != nil || !res.Committed {
			t.Fatalf("submit %d: %+v, %v", i, res, err)
		}
		if res.Synced {
			synced++
		}
		want[k] = append(want[k], []int64{n})
	}
	if synced == 0 {
		t.Fatal("no submission paid a round")
	}
	for k, c := range cs {
		if got := logArgs(c.WireLog()); !slices.EqualFunc(got, want[k], slices.Equal) {
			t.Errorf("site %d's commit log holds arguments %v, want %v", k, got, want[k])
		}
	}
	if err := mergedReplay(cs[0], cs...); err != nil {
		t.Fatalf("merged replay: %v", err)
	}
	for k, c := range cs {
		c.Close()
		if got := walArgs(t, dir, k); !slices.EqualFunc(got, want[k], slices.Equal) {
			t.Errorf("site %d's write-ahead log holds arguments %v, want %v", k, got, want[k])
		}
	}
}

// TestResultLogOutlivesTheExecFrame: an execution frame's print-log buffer
// and demand snapshot go back to the frame pool, and are scribbled over,
// when the submission returns; the Log of a committed result is its own
// and still reads what was printed after later submissions at the same
// site reuse the frame.
func TestResultLogOutlivesTheExecFrame(t *testing.T) {
	scribbling(t)
	c := simCluster(t, homeo.Options{EnableLog: true, Alloc: homeo.AllocAdaptive})
	cls, err := c.Register(homeo.ClassSpec{
		L:       `transaction P(n) { v := read(y); write(y = v + n); print(n) }`,
		Initial: map[string]int64{"y": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	var logs [][]int64
	for i := int64(1); i <= 20; i++ {
		res, err := c.Session().Submit(context.Background(), cls, i)
		if err != nil || !res.Committed || !slices.Equal(res.Log, []int64{i}) {
			t.Fatalf("P(%d): %+v, %v; want a commit printing %d", i, res, err, i)
		}
		logs = append(logs, res.Log)
	}
	for i, log := range logs {
		if !slices.Equal(log, []int64{int64(i + 1)}) {
			t.Errorf("P(%d)'s Log reads %v after later submissions", i+1, log)
		}
	}
}

// TestTimedOutSubmitKeepsItsArguments: on the live runtime a caller whose
// context expires gets ErrTimeout while the transaction is still executing,
// and overwrites its arguments at once; the transaction commits later on
// the arguments it was submitted with, in the commit log and the
// write-ahead log, and the serial replay holds.
func TestTimedOutSubmitKeepsItsArguments(t *testing.T) {
	scribbling(t)
	dir := t.TempDir()
	c, err := homeo.New(homeo.Options{
		Runtime:       homeo.RuntimeLive,
		LocalExecTime: 20 * time.Millisecond,
		Seed:          11,
		EnableLog:     true,
		WAL:           homeo.WALOptions{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cls, err := c.Register(homeo.ClassSpec{L: depositSrc, Bounds: map[string][2]int64{"n": {1, 5}}, Initial: map[string]int64{"acct": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	var want [][]int64
	args := make([]int64, 1)
	for n := int64(1); n <= 5; n++ {
		args[0] = n
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := c.Session().Submit(ctx, cls, args...)
		cancel()
		args[0] = -1000 - n
		if !errors.Is(err, homeo.ErrTimeout) {
			t.Fatalf("submit %d: err = %v, want ErrTimeout (the execution takes 20 ms)", n, err)
		}
		want = append(want, []int64{n})
	}
	for deadline := time.Now().Add(10 * time.Second); c.Committed() < len(want); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d timed-out submissions committed", c.Committed(), len(want))
		}
	}
	sorted := func(args [][]int64) [][]int64 {
		args = slices.Clone(args)
		slices.SortFunc(args, slices.Compare)
		return args
	}
	if got := sorted(logArgs(c.WireLog())); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("the commit log holds arguments %v, want %v", got, want)
	}
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	c.Close()
	got := append(walArgs(t, dir, 0), walArgs(t, dir, 1)...)
	if got := sorted(got); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("the write-ahead logs hold arguments %v, want %v", got, want)
	}
}
