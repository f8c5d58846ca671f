package homeostasis

import "unsafe"

// Segment sizes of a CommitLog, in entries: the first segment holds
// segMin, each next one twice its predecessor's capacity, up to segMax
// (1 MiB of entries).
const (
	segMin = 64
	segMax = 1 << 20 / int(unsafe.Sizeof(Committed{}))
)

// CommitLog is the in-memory commit log the replay checks run against,
// in commit order. It grows by segments that are appended and never
// copied: an append writes into the last segment, or starts a new one
// when that is full, so a pointer At returns stays valid for the log's
// life and a long log never holds an old and a new backing array at once.
type CommitLog struct {
	segs [][]Committed
	n    int
}

// Len is the number of entries.
func (l *CommitLog) Len() int { return l.n }

// At returns entry i, which stays where it is however the log grows.
func (l *CommitLog) At(i int) *Committed {
	for _, seg := range l.segs {
		if i < len(seg) {
			return &seg[i]
		}
		i -= len(seg)
	}
	panic("homeostasis: commit log index out of range")
}

// All calls yield with each entry and its index, in order, until yield
// returns false.
func (l *CommitLog) All(yield func(int, *Committed) bool) {
	i := 0
	for _, seg := range l.segs {
		for j := range seg {
			if !yield(i, &seg[j]) {
				return
			}
			i++
		}
	}
}

// add appends e, into the last segment while it has room.
//
//homeo:hotpath
func (l *CommitLog) add(e Committed) {
	k := len(l.segs) - 1
	if k < 0 || len(l.segs[k]) == cap(l.segs[k]) {
		size := segMin
		if k >= 0 {
			size = min(max(2*cap(l.segs[k]), segMin), segMax)
		}
		l.adopt(make([]Committed, 0, size))
		k++
	}
	l.segs[k] = append(l.segs[k], e)
	l.n++
}

// adopt appends seg as a segment of its own, without copying it: the log
// owns seg from here on, and appends go into its spare capacity.
func (l *CommitLog) adopt(seg []Committed) {
	l.segs = append(l.segs, seg)
	l.n += len(seg)
}
