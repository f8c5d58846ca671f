package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(sim.Duration(i) * sim.Millisecond)
	}
	if got := h.Percentile(50); got != 51*sim.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(0); got != 1*sim.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := h.Percentile(100); got != 100*sim.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := h.Max(); got != 100*sim.Millisecond {
		t.Fatalf("max = %v", got)
	}
	if got := h.Mean(); got != 50*sim.Millisecond+500*sim.Microsecond {
		t.Fatalf("mean = %v", got)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	vals := rng.Perm(1000)
	for _, v := range vals {
		h.Add(sim.Duration(v+1) * sim.Microsecond)
	}
	if got := h.Percentile(99); got < 980*sim.Microsecond {
		t.Fatalf("p99 = %v on shuffled input", got)
	}
	if h.N() != 1000 {
		t.Fatalf("n = %d", h.N())
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestAddAfterPercentileResorts(t *testing.T) {
	var h Histogram
	h.Add(10 * sim.Millisecond)
	_ = h.Percentile(50)
	h.Add(1 * sim.Millisecond) // must trigger re-sort
	if got := h.Percentile(0); got != 1*sim.Millisecond {
		t.Fatalf("p0 = %v after late insert", got)
	}
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b.Add(2*sim.Millisecond, 50*sim.Millisecond, 200*sim.Millisecond)
	b.Add(4*sim.Millisecond, 30*sim.Millisecond, 200*sim.Millisecond)
	local, solver, comm := b.Avg()
	if local != 3*sim.Millisecond || solver != 40*sim.Millisecond || comm != 200*sim.Millisecond {
		t.Fatalf("avg = %v %v %v", local, solver, comm)
	}
	var empty Breakdown
	l, s, c := empty.Avg()
	if l != 0 || s != 0 || c != 0 {
		t.Fatal("empty breakdown should average to zero")
	}
}

func TestCollectorGating(t *testing.T) {
	c := &Collector{}
	c.RecordCommit(5*sim.Millisecond, false) // warm-up: ignored
	c.RecordConflictAbort()
	if c.Committed != 0 || c.AbortedConflicts != 0 {
		t.Fatal("warm-up events must not be recorded")
	}
	c.Measuring = true
	c.Start = 0
	c.RecordCommit(5*sim.Millisecond, true)
	c.RecordCommit(5*sim.Millisecond, false)
	c.RecordConflictAbort()
	c.End = sim.Time(2 * sim.Second)
	if c.Committed != 2 || c.Synced != 1 || c.AbortedConflicts != 1 {
		t.Fatalf("counters: %d %d %d", c.Committed, c.Synced, c.AbortedConflicts)
	}
	if got := c.Throughput(); got != 1.0 {
		t.Fatalf("throughput = %f, want 1.0", got)
	}
	if got := c.SyncRatio(); got != 50 {
		t.Fatalf("sync ratio = %f, want 50", got)
	}
}

func TestThroughputZeroWindow(t *testing.T) {
	c := &Collector{}
	if c.Throughput() != 0 || c.SyncRatio() != 0 {
		t.Fatal("zero-window collector should report zeros")
	}
}

// TestThroughputAtIsReadOnly: the rolling-window rate must not touch the
// collector (a GET endpoint computes it on a live system).
func TestThroughputAtIsReadOnly(t *testing.T) {
	c := &Collector{Measuring: true, Start: 0}
	for i := 0; i < 10; i++ {
		c.RecordCommit(sim.Millisecond, false)
	}
	endBefore := c.End
	got := c.ThroughputAt(sim.Time(2 * sim.Second))
	if got != 5 {
		t.Fatalf("ThroughputAt = %v txn/s, want 5", got)
	}
	if c.End != endBefore {
		t.Fatalf("ThroughputAt mutated End: %v -> %v", endBefore, c.End)
	}
	if c.ThroughputAt(0) != 0 {
		t.Fatal("empty window must report 0")
	}
}

// TestDistinctFailureCounters: the livelock, generation-failure, and
// co-winner counters record independently and honor the measuring gate.
func TestDistinctFailureCounters(t *testing.T) {
	c := &Collector{}
	c.RecordLivelock()
	c.RecordTreatyGenFailure()
	c.RecordCoWinner()
	if c.Livelocked != 0 || c.TreatyGenFailures != 0 || c.CoWinnerCommits != 0 {
		t.Fatal("counters recorded during warm-up")
	}
	c.Measuring = true
	c.RecordLivelock()
	c.RecordDropped()
	c.RecordTreatyGenFailure()
	c.RecordCoWinner()
	c.RecordCoWinner()
	if c.Livelocked != 1 || c.Dropped != 1 || c.TreatyGenFailures != 1 || c.CoWinnerCommits != 2 {
		t.Fatalf("counters = livelock %d dropped %d genfail %d cowinner %d",
			c.Livelocked, c.Dropped, c.TreatyGenFailures, c.CoWinnerCommits)
	}
}

// TestHistogramAddAll: merged histograms report percentiles over the
// union of samples.
func TestHistogramAddAll(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 50; i++ {
		a.Add(sim.Duration(i))
	}
	for i := 51; i <= 100; i++ {
		b.Add(sim.Duration(i))
	}
	a.AddAll(&b)
	a.AddAll(nil)
	if a.N() != 100 {
		t.Fatalf("N = %d, want 100", a.N())
	}
	if p := a.Percentile(50); p != sim.Duration(51) {
		t.Fatalf("p50 = %v, want 51", p)
	}
	if m := a.Max(); m != sim.Duration(100) {
		t.Fatalf("max = %v", m)
	}
}

// TestNegotiationLatencyGatedAndSnapshot: negotiation samples respect the
// measuring gate and surface in what a stats reader takes from the
// collector (homeo.Cluster.Stats reads these fields in place).
func TestNegotiationLatencyGatedAndSnapshot(t *testing.T) {
	var c Collector
	c.RecordNegotiation(sim.Millisecond) // warm-up: dropped
	c.Measuring = true
	c.RecordNegotiation(100 * sim.Millisecond)
	c.RecordNegotiation(300 * sim.Millisecond)
	c.RecordFabricError()
	if n := c.NegotiationLatency.N(); n != 2 {
		t.Fatalf("negotiations = %d, want 2", n)
	}
	if p50 := c.NegotiationLatency.Percentile(50); p50 != 300*sim.Millisecond && p50 != 100*sim.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 := c.NegotiationLatency.Percentile(99); p99 != 300*sim.Millisecond {
		t.Fatalf("p99 = %v, want 300ms", p99)
	}
	if c.FabricErrors != 1 {
		t.Fatalf("fabric errors = %d, want 1", c.FabricErrors)
	}
}
