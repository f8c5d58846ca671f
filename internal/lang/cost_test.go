package lang

import (
	"runtime"
	"testing"
)

// parseCost bounds what parsing a source may allocate: 256 bytes a byte
// of source and 4 KiB more. A token is 48 bytes, one a byte at worst, in
// a slice grown by doubling, and each holds up a node or two; the worst
// the seeds reach is 128 bytes a byte (a group nested at the bound).
var parseCost = struct{ perByte, fixed uint64 }{256, 4096}

// checkParseCost fails t if parse, a parse of src, allocates more than
// parseCost allows. The count is the whole process's, and the fuzzing
// engine allocates beside the call now and then, so a call over the bound
// is measured twice more and the least count is the one judged. Under the
// race detector, which allocates on its own, parse only runs.
func checkParseCost(t *testing.T, src string, parse func()) {
	if raceEnabled {
		parse()
		return
	}
	limit := parseCost.perByte*uint64(len(src)) + parseCost.fixed
	got := allocated(parse)
	for i := 0; i < 2 && got > limit; i++ {
		got = min(got, allocated(parse))
	}
	if got > limit {
		t.Fatalf("parsing %d bytes allocated %d, over the bound %d", len(src), got, limit)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
