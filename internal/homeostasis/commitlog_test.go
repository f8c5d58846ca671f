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
	l.All(func(_ int, e Committed) bool {
		out = append(out, e)
		return true
	})
	return out
}

// entry returns the packed entry i, which stays where it is however the
// log grows.
func (l *CommitLog) entry(i int) *logEntry {
	k, j := l.locate(i)
	return &l.segs[k][j]
}

// TestCommitLogEntrySize: the log keeps a commit in 32 bytes the
// collector does not scan, where the Committed it hands readers takes 72.
// A field added to logEntry must take the place of one, or the log's
// memory per commit grows with it.
func TestCommitLogEntrySize(t *testing.T) {
	if entry := unsafe.Sizeof(logEntry{}); entry > 32 {
		t.Errorf("a commit-log entry is %d bytes, want at most 32", entry)
	}
	typ := reflect.TypeOf(logEntry{})
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type.Kind() < reflect.Int || f.Type.Kind() > reflect.Uint64 {
			t.Errorf("logEntry.%s is a %s: the collector would scan every segment", f.Name, f.Type)
		}
	}
}

// TestCommitLogSegments appends random entries, one at a time and now and
// then as an adopted run, across many segments, with argument lists now
// and then longer than a slab slot: every packed entry stays at the
// address it was first given, the log reads back as the reference slice,
// an entry's arguments have no room to grow into the next one's, and no
// segment the log allocates itself exceeds 1 MiB.
func TestCommitLogSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var (
		log  CommitLog
		ref  []Committed
		addr []*logEntry
	)
	entry := func() Committed {
		var args []int64
		switch n := rng.Intn(1000); {
		case n == 0:
			args = make([]int64, slabChunk+rng.Intn(3*slabChunk))
		case n < 900 && n%4 > 0:
			args = make([]int64, n%4)
		}
		for i := range args {
			args[i] = rng.Int63()
		}
		return Committed{Name: string(rune('a' + rng.Intn(26))), Site: rng.Intn(3), Clock: rng.Int63(),
			Args: args, Round: fabric.RoundID{Site: rng.Intn(3), Seq: rng.Uint64()}}
	}
	for log.Len() < 3*segMax {
		if rng.Intn(500) == 0 {
			run := make([]logEntry, rng.Intn(300)+1, 400)
			for i := range run {
				e := entry()
				run[i] = log.pack(log.classID(e.Name), e)
				ref = append(ref, e)
			}
			log.adopt(run)
		} else {
			e := entry()
			log.add(e)
			ref = append(ref, e)
		}
		for len(addr) < log.Len() {
			addr = append(addr, log.entry(len(addr)))
		}
	}
	if len(log.segs) < 3 {
		t.Fatalf("%d entries in %d segments, want at least 3", log.Len(), len(log.segs))
	}
	for i := range ref {
		if log.entry(i) != addr[i] {
			t.Fatalf("entry %d moved", i)
		}
	}
	if got := logEntries(&log); !reflect.DeepEqual(got, ref) {
		t.Fatal("the log does not read back as the entries appended")
	}
	log.All(func(i int, e Committed) bool {
		if !reflect.DeepEqual(e, log.At(i)) {
			t.Fatalf("All yields entry %d otherwise than At", i)
		}
		if cap(e.Args) != len(e.Args) {
			t.Fatalf("entry %d's arguments have room to grow: %d/%d", i, len(e.Args), cap(e.Args))
		}
		return true
	})
	if size := segMax * int(unsafe.Sizeof(logEntry{})); size > 1<<20 {
		t.Errorf("a full segment is %d bytes", size)
	}
}

// TestCommitLogAppendAllocs: an append inside a segment and a slab chunk
// allocates nothing, and neither does reading an entry back.
func TestCommitLogAppendAllocs(t *testing.T) {
	var log CommitLog
	for log.Len() <= segMin {
		log.add(Committed{Name: "y"})
	}
	e := Committed{Name: "x", Args: []int64{1}}
	// One warm-up call and 100 measured, inside the second segment's 128.
	if n := testing.AllocsPerRun(100, func() { log.add(e) }); n != 0 {
		t.Fatalf("an append inside a segment allocates %v", n)
	}
	var got Committed
	if n := testing.AllocsPerRun(100, func() { got = log.At(log.Len() - 1) }); n != 0 || got.Name != "x" || got.Args[0] != 1 {
		t.Fatalf("reading an entry allocates %v (read %+v)", n, got)
	}
}

// TestCommitLogAllocatesItsEntriesOnce: a long log allocates its entries
// and at most one segment of room to grow, where a slice regrown by append
// allocates several times its entries over its life.
func TestCommitLogAllocatesItsEntriesOnce(t *testing.T) {
	const n = 100000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var log CommitLog
	for i := range n {
		log.add(Committed{Clock: int64(i)})
	}
	runtime.ReadMemStats(&after)
	size := uint64(unsafe.Sizeof(logEntry{}))
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n+segMax)*size+4096; got > limit {
		t.Errorf("%d appends allocated %d bytes, want at most %d (%d-byte entries and one segment)", n, got, limit, size)
	}
	if log.Len() != n || log.At(n-1).Clock != n-1 {
		t.Fatalf("the log holds %d entries", log.Len())
	}
}
