package homeo_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/wire"
	"repro/internal/lang"
)

// mergeOracle is MergeLogs as it stood before the merge ordered positions:
// the logs' concatenation copied, stably sorted by (Clock, Site, Seq), and
// every round's winner kept at its first position only.
func mergeOracle(logs [][]wire.LogEntry) []wire.LogEntry {
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	out := make([]wire.LogEntry, 0, total)
	for _, l := range logs {
		out = append(out, l...)
	}
	slices.SortStableFunc(out, func(a, b wire.LogEntry) int {
		if c := cmp.Compare(a.Clock, b.Clock); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Site, b.Site); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	seen := make(map[wire.LogRound]bool)
	dst := out[:0]
	for _, e := range out {
		if e.Round != nil {
			if seen[*e.Round] {
				continue
			}
			seen[*e.Round] = true
		}
		dst = append(dst, e)
	}
	return dst
}

// buyCluster is a two-site simulated cluster with one class, Buy, whose
// serial effect on its one object stock the tests recompute by hand.
func buyCluster(t testing.TB) *homeo.Cluster {
	t.Helper()
	c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Sites: 2, LocalExecTime: time.Nanosecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Register(homeo.ClassSpec{
		L:       "transaction Buy(n) { v := read(stock); if (v - n > 0) then write(stock = v - n) else write(stock = v - n + 100) }",
		Bounds:  map[string][2]int64{"n": {1, 3}},
		Initial: map[string]int64{"stock": 50},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// buy is Buy's serial effect on stock.
func buy(v, n int64) int64 {
	if v-n > 0 {
		return v - n
	}
	return v - n + 100
}

// randomWireLogs returns the commit logs of 1–3 processes: Buy commits at
// clocks that tie across logs and within one, and round winners, some
// logged again by a second process (an adopted round), with arguments that
// tell the copies apart.
func randomWireLogs(rng *rand.Rand, entries int) [][]wire.LogEntry {
	logs := make([][]wire.LogEntry, 1+rng.Intn(3))
	var rounds []wire.LogRound
	for i := 0; i < entries; i++ {
		k := rng.Intn(len(logs))
		e := wire.LogEntry{Class: "Buy", Args: []int64{1 + rng.Int63n(3)}, Site: rng.Intn(2),
			Clock: int64(i/4 + rng.Intn(3)), Seq: len(logs[k])}
		switch x := rng.Intn(10); {
		case x == 0:
			r := wire.LogRound{Site: e.Site, Seq: uint64(i)}
			rounds = append(rounds, r)
			e.Round = &r
		case x == 1 && len(rounds) > 0:
			r := rounds[rng.Intn(len(rounds))]
			e.Round = &r
		}
		logs[k] = append(logs[k], e)
	}
	return logs
}

// partsAt returns the two sites' partitions of a cluster whose stock ends
// at v, all of it in the replicated base.
func partsAt(v int64) []wire.PartitionResponse {
	parts := make([]wire.PartitionResponse, 2)
	for s := range parts {
		parts[s] = wire.PartitionResponse{Site: s, Values: map[string]int64{
			"stock": v, string(lang.DeltaObj("stock", s)): 0,
		}}
	}
	return parts
}

// TestMergedReplayOrdersPositions holds the merge to the copying one it
// replaced, on random wire logs with round winners logged twice: the
// positions CheckMergedReplay walks and the entries MergeLogs returns are
// both exactly the oracle's history. The replay over them accepts the
// partitions that history produces, and reports a seeded divergence with
// the message it always gave.
func TestMergedReplayOrdersPositions(t *testing.T) {
	c := buyCluster(t)
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		logs := randomWireLogs(rng, rng.Intn(300))
		want := mergeOracle(logs)
		var byPos []wire.LogEntry
		for _, p := range homeo.MergeOrder(logs) {
			byPos = append(byPos, logs[p[0]][p[1]])
		}
		if got := homeo.MergeLogs(logs); !reflect.DeepEqual(got, want) || len(want) > 0 && !reflect.DeepEqual(byPos, want) {
			t.Fatalf("seed %d: merged %d entries by position and %d by MergeLogs, the oracle %d, or their order differs",
				seed, len(byPos), len(got), len(want))
		}
		if len(want) == 0 {
			continue
		}
		v := int64(50)
		for _, e := range want {
			v = buy(v, e.Args[0])
		}
		if err := c.CheckMergedReplay(logs, partsAt(v)); err != nil {
			t.Fatalf("seed %d: the replay refused the history's own state: %v", seed, err)
		}
		off := 1 + rng.Int63n(5)
		wantErr := fmt.Sprintf("homeo: merged replay mismatch on stock: cluster %d, serial replay %d (%d commits)",
			v+off, v, len(want))
		if err := c.CheckMergedReplay(logs, partsAt(v+off)); err == nil || err.Error() != wantErr {
			t.Fatalf("seed %d: a divergence of %d reported as %v, want %q", seed, off, err, wantErr)
		}
	}
}

// TestMergedReplayAllocs: the merged-replay check orders positions, not
// copies of entries, so on a 100 000-entry history it allocates at most 16
// bytes an entry (the copy it replaced was 72 alone).
func TestMergedReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const entries = 100000
	c := buyCluster(t)
	logs := randomWireLogs(rand.New(rand.NewSource(1)), entries)
	v := int64(50)
	for _, e := range mergeOracle(logs) {
		v = buy(v, e.Args[0])
	}
	parts := partsAt(v)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := c.CheckMergedReplay(logs, parts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / entries; per > 16 {
		t.Errorf("CheckMergedReplay allocates %.1f B an entry, want at most 16", per)
	} else {
		t.Logf("%.1f B an entry", per)
	}
}
