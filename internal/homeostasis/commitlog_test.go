package homeostasis

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/fabric"
)

// logEntries copies the log out, for tests that range over it or compare
// it whole.
func logEntries(l *CommitLog) []Committed {
	var out []Committed
	l.All(func(_ int, e *Committed) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// TestCommitLogSegments appends random entries, one at a time and now and
// then as an adopted run, across many segments: every entry stays at the
// address At first gave it, the log reads back as the reference slice,
// and no segment the log allocates itself exceeds 1 MiB.
func TestCommitLogSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var (
		log  CommitLog
		ref  []Committed
		addr []*Committed
	)
	entry := func() Committed {
		return Committed{Name: string(rune('a' + rng.Intn(26))), Site: rng.Intn(3), Clock: rng.Int63(),
			Args: []int64{rng.Int63()}, Round: fabric.RoundID{Site: rng.Intn(3), Seq: rng.Uint64()}}
	}
	for log.Len() < 3*segMax {
		if rng.Intn(500) == 0 {
			run := make([]Committed, rng.Intn(300)+1, 400)
			for i := range run {
				run[i] = entry()
			}
			log.adopt(run)
			ref = append(ref, run...)
		} else {
			e := entry()
			log.add(e)
			ref = append(ref, e)
		}
		for len(addr) < log.Len() {
			addr = append(addr, log.At(len(addr)))
		}
	}
	if len(log.segs) < 3 {
		t.Fatalf("%d entries in %d segments, want at least 3", log.Len(), len(log.segs))
	}
	for i := range ref {
		if log.At(i) != addr[i] {
			t.Fatalf("entry %d moved", i)
		}
	}
	if got := logEntries(&log); !reflect.DeepEqual(got, ref) {
		t.Fatal("the log does not read back as the entries appended")
	}
	log.All(func(i int, e *Committed) bool {
		if e != addr[i] {
			t.Fatalf("All yields entry %d at another address than At", i)
		}
		return i < 10
	})
	if size := segMax * int(unsafe.Sizeof(Committed{})); size > 1<<20 {
		t.Errorf("a full segment is %d bytes", size)
	}
}

// TestCommitLogAppendAllocs: an append inside a segment allocates nothing.
func TestCommitLogAppendAllocs(t *testing.T) {
	var log CommitLog
	for log.Len() <= segMin {
		log.add(Committed{})
	}
	e := Committed{Name: "x", Args: []int64{1}}
	// One warm-up call and 100 measured, inside the second segment's 128.
	if n := testing.AllocsPerRun(100, func() { log.add(e) }); n != 0 {
		t.Fatalf("an append inside a segment allocates %v", n)
	}
}

// TestCommitLogAllocatesItsEntriesOnce: a long log allocates little more
// than its entries, where a slice regrown by append allocates several
// times that over its life.
func TestCommitLogAllocatesItsEntriesOnce(t *testing.T) {
	const n = 100000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var log CommitLog
	for i := range n {
		log.add(Committed{Clock: int64(i)})
	}
	runtime.ReadMemStats(&after)
	size := uint64(unsafe.Sizeof(Committed{}))
	if got, limit := after.TotalAlloc-before.TotalAlloc, n*size*11/10; got > limit {
		t.Errorf("%d appends allocated %d bytes, want at most %d (1.1 × %d-byte entries)", n, got, limit, size)
	}
	if log.Len() != n || log.At(n-1).Clock != n-1 {
		t.Fatalf("the log holds %d entries", log.Len())
	}
}
