package homeostasis

import (
	"math"
	"unsafe"

	"repro/internal/fabric"
)

// Segment sizes of a CommitLog, in entries: the first segment holds
// segMin, each next one twice its predecessor's capacity, up to segMax
// (1 MiB of entries).
const (
	segMin = 64
	segMax = 1 << 20 / int(unsafe.Sizeof(logEntry{}))
)

// slabChunk is how many int64s each chunk of a CommitLog's argument slab
// holds: 64 KiB.
const slabChunk = 8192

// CommitLog is the in-memory commit log the replay checks run against,
// in commit order. It keeps each commit packed (logEntry) and hands
// readers a Committed decoded from it. It grows by segments that are
// appended and never copied: an append writes into the last segment, or
// starts a new one when that is full, so a long log never holds an old
// and a new backing array at once.
type CommitLog struct {
	segs [][]logEntry
	n    int
	// names is every class name the log holds, once, and ids its index.
	names []string
	ids   map[string]uint32
	// slab is the log's copy of every entry's arguments in slabChunk
	// slots, each the next slabChunk values of the slab: argument offset
	// at lies in slot at/slabChunk. A list longer than a slot gets a chunk
	// of its own that spans as many slots as it needs. top is the next
	// free offset. Chunks are never regrown, so arguments never move.
	slab [][]int64
	top  int
}

// logEntry is one commit as a CommitLog keeps it, in 32 bytes with no
// pointer for the collector to scan: the name and the arguments are places
// in the log's tables, and sites are 16 bits wide (every width is capped
// at maxWALSites).
type logEntry struct {
	clock    int64
	roundSeq uint64
	class    uint32
	args     uint32 // offset of the arguments in the slab
	nargs    uint32
	site     uint16
	// roundSite is the round's site plus one, and 0 for a commit of no
	// round.
	roundSite uint16
}

// round returns the round e names, the zero RoundID for none.
func (e *logEntry) round() fabric.RoundID {
	if e.roundSite == 0 {
		return fabric.RoundID{}
	}
	return fabric.RoundID{Site: int(e.roundSite) - 1, Seq: e.roundSeq}
}

// setRound records that e commits round rid.
func (e *logEntry) setRound(rid fabric.RoundID) {
	e.roundSite, e.roundSeq = uint16(rid.Site+1), rid.Seq
}

// Len is the number of entries.
func (l *CommitLog) Len() int { return l.n }

// At returns entry i.
func (l *CommitLog) At(i int) Committed { return l.view(l.locate(i)) }

// locate returns where entry i is: segment k, place j.
func (l *CommitLog) locate(i int) (k, j int) {
	for k := range l.segs {
		if n := len(l.segs[k]); i >= n {
			i -= n
		} else {
			return k, i
		}
	}
	panic("homeostasis: commit log index out of range")
}

// All calls yield with each entry and its index, in order, until yield
// returns false.
func (l *CommitLog) All(yield func(int, Committed) bool) {
	i := 0
	for k := range l.segs {
		for j := range l.segs[k] {
			if !yield(i, l.view(k, j)) {
				return
			}
			i++
		}
	}
}

// view decodes entry j of segment k. Name and Args are the log's: reading
// allocates nothing.
func (l *CommitLog) view(k, j int) Committed {
	e := &l.segs[k][j]
	return Committed{
		Name:  l.names[e.class],
		Args:  l.argsOf(e),
		Site:  int(e.site),
		Clock: e.clock,
		Round: e.round(),
	}
}

// argsOf returns e's arguments in the slab, capacity-clipped so that
// appending to them cannot write into the next entry's; nil for none.
func (l *CommitLog) argsOf(e *logEntry) []int64 {
	if e.nargs == 0 {
		return nil
	}
	at, n := int(e.args), int(e.nargs)
	return l.slab[at/slabChunk][at%slabChunk : at%slabChunk+n : at%slabChunk+n]
}

// add packs e into the last segment while it has room. It is the one way
// an entry enters the log while the System runs (WAL replay packs into the
// same log).
//
//homeo:hotpath
func (l *CommitLog) add(e Committed) {
	p := l.pack(l.classID(e.Name), e)
	k := len(l.segs) - 1
	if k < 0 || len(l.segs[k]) == cap(l.segs[k]) {
		size := segMin
		if k >= 0 {
			size = min(max(2*cap(l.segs[k]), segMin), segMax)
		}
		l.adopt(make([]logEntry, 0, size))
		k++
	}
	l.segs[k] = append(l.segs[k], p)
	l.n++
}

// adopt appends seg as a segment of its own, without copying it: the log
// owns seg from here on, and appends go into its spare capacity. seg's
// class ids and argument offsets must be this log's.
func (l *CommitLog) adopt(seg []logEntry) {
	l.segs = append(l.segs, seg)
	l.n += len(seg)
}

// classID returns the id of name in the log's name table, adding it on
// first sight.
//
//homeo:hotpath
func (l *CommitLog) classID(name string) uint32 {
	if k, ok := l.ids[name]; ok {
		return k
	}
	return l.addName(name)
}

// addName appends name to the name table and returns its id. A log names
// a handful of classes, so the table starts with room for a handful.
func (l *CommitLog) addName(name string) uint32 {
	if l.ids == nil {
		l.names, l.ids = make([]string, 0, 8), make(map[string]uint32, 8)
	}
	k := uint32(len(l.names))
	l.names = append(l.names, name)
	l.ids[name] = k
	return k
}

// pack encodes e as an entry of class k, its Args copied into the slab (a
// request borrows its arguments from a caller that may reuse them as soon
// as the submission returns, a replayed record from the log's read
// buffer). The sites fit: every caller has checked them against
// the cluster's width or maxWALSites.
//
//homeo:hotpath
func (l *CommitLog) pack(k uint32, e Committed) logEntry {
	if uint(e.Site) > math.MaxUint16 || uint(e.Round.Site) >= math.MaxUint16 {
		panic("homeostasis: commit log site outside 16 bits")
	}
	at, n := l.carve(e.Args)
	p := logEntry{clock: e.Clock, class: k, args: at, nargs: n, site: uint16(e.Site)}
	if e.Round != (fabric.RoundID{}) {
		p.setRound(e.Round)
	}
	return p
}

// carve copies src into the slab and returns its offset and length. A
// list that does not fit in the rest of its slot starts the next one; a
// slot once filled is never regrown, so pieces already handed out stay
// where they are.
//
//homeo:hotpath
func (l *CommitLog) carve(src []int64) (at, n uint32) {
	if len(src) == 0 {
		return 0, 0
	}
	if off := l.top % slabChunk; off != 0 && off+len(src) > slabChunk {
		l.top += slabChunk - off
	}
	if uint64(l.top)+uint64(len(src)) > math.MaxUint32 {
		panic("homeostasis: commit log arguments past 2^32 values")
	}
	if slot := l.top / slabChunk; slot == len(l.slab) {
		chunk := make([]int64, (len(src)+slabChunk-1)/slabChunk*slabChunk)
		for from := 0; from < len(chunk); from += slabChunk {
			l.slab = append(l.slab, chunk[from:from+slabChunk])
		}
	}
	off := l.top % slabChunk
	copy(l.slab[l.top/slabChunk][off:off+len(src)], src)
	at, l.top = uint32(l.top), l.top+len(src)
	return at, uint32(len(src))
}
