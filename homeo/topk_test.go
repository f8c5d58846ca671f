package homeo_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"repro/homeo"
	"repro/homeo/wire"
)

// topkSpec is the paper's Section 1 motivating class, the aggregator's
// top-2 insert (internal/lang/testdata/topk.l), registered through the
// public pipeline: inserted values in [1, 5000], the list at (100, 91) as
// in Figure 1. The list has no merge function, so the registry pins both
// entries; inserts at or below top2 write nothing and commit locally under
// the pins, which is Figure 2's improved algorithm.
func topkSpec(t *testing.T) homeo.ClassSpec {
	t.Helper()
	src, err := os.ReadFile("../internal/lang/testdata/topk.l")
	if err != nil {
		t.Fatal(err)
	}
	return homeo.ClassSpec{
		L:       string(src),
		Bounds:  map[string][2]int64{"v": {1, 5000}},
		Initial: map[string]int64{"top1": 100, "top2": 91},
	}
}

// checkTopK checks a finished top-k run: serial replay of the commit log
// (Theorem 3.8) one log at a time and merged against every site's
// partition, the final list equal to the true top-2 of the initial list
// and every committed insert, and every replica holding that list.
func checkTopK(t *testing.T, c *homeo.Cluster) {
	t.Helper()
	if err := c.CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
	log := c.WireLog()
	sys := c.System()
	parts := make([]wire.PartitionResponse, sys.NSites())
	for k := range parts {
		parts[k] = wire.PartitionResponse{Site: k, Values: map[string]int64{}}
		for obj, v := range sys.PartitionDB(k) {
			parts[k].Values[string(obj)] = v
		}
	}
	if err := c.CheckMergedReplay([][]wire.LogEntry{log}, parts); err != nil {
		t.Fatal(err)
	}
	vals := []int64{100, 91}
	for _, e := range log {
		vals = append(vals, e.Args[0])
	}
	slices.SortFunc(vals, func(a, b int64) int { return cmp.Compare(b, a) })
	final := sys.FoldedDB()
	if final["top1"] != vals[0] || final["top2"] != vals[1] {
		t.Fatalf("final list (%d, %d) != true top-2 (%d, %d) of %d inserts",
			final["top1"], final["top2"], vals[0], vals[1], len(log))
	}
	for k, st := range sys.Stores {
		if st.Get("top1") != vals[0] || st.Get("top2") != vals[1] {
			t.Fatalf("replica %d holds (%d, %d), not the list (%d, %d)",
				k, st.Get("top1"), st.Get("top2"), vals[0], vals[1])
		}
	}
}

// TestTopKEndToEnd drives the top-k class on the simulator: inserts below
// the cached minimum commit locally, list-changing inserts synchronize,
// and the final list is the true top-2 of everything inserted.
func TestTopKEndToEnd(t *testing.T) {
	for _, sites := range []int{2, 3} {
		t.Run(fmt.Sprintf("sites=%d", sites), func(t *testing.T) {
			c := simCluster(t, homeo.Options{
				Sites:          sites,
				Seed:           5,
				ClientsPerSite: 4,
				Measure:        5 * time.Second,
				EnableLog:      true,
			})
			if _, err := c.Register(topkSpec(t)); err != nil {
				t.Fatal(err)
			}
			st := c.Drive()
			t.Logf("%d commits, %d synchronized", st.Committed, st.Synced)
			if st.Committed < 100 {
				t.Fatalf("committed = %d", st.Committed)
			}
			// With values uniform in [1, 5000] and the minimum ratcheting
			// upward, most inserts are silent.
			if st.SyncRatioPct > 50 {
				t.Fatalf("sync ratio = %.1f%%, expected mostly silent inserts", st.SyncRatioPct)
			}
			if st.Synced == 0 {
				t.Fatal("no insert ever updated the list")
			}
			checkTopK(t, c)
		})
	}
}

// TestTopKOnLive runs the top-k class on the wall-clock runtime: a few
// hundred concurrent submissions at both sites of a live cluster, values
// drawn from the class's bounds.
func TestTopKOnLive(t *testing.T) {
	c, err := homeo.New(homeo.Options{
		Runtime:       homeo.RuntimeLive,
		RTT:           5 * time.Millisecond,
		LocalExecTime: 100 * time.Microsecond,
		EnableLog:     true,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cls, err := c.Register(topkSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	const clients, each = 4, 75
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			sess, err := c.SessionAt(g % 2)
			if err != nil {
				errc <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < each; i++ {
				if _, err := sess.Submit(context.Background(), cls, 1+rng.Int63n(5000)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if got := c.Committed(); got != clients*each {
		t.Fatalf("committed %d of %d", got, clients*each)
	}
	checkTopK(t, c)
}
