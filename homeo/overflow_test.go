package homeo_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/homeo"
	"repro/internal/lang"
)

// TestOverflowingDepositAborts: L's integers never wrap. A deposit whose
// sum would leave int64 aborts in every mode: the submission fails as
// ErrAborted naming the overflow, at once rather than after a retry
// budget, and writes nothing. The deposits that fit commit, and the serial
// replay of the log (rebuilt from each commit's name and arguments, so it
// meets the same overflow where it would) reproduces the cluster.
func TestOverflowingDepositAborts(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []homeo.Mode{homeo.ModeHomeo, homeo.ModeOpt, homeo.ModeHomeoDefault, homeo.ModeTwoPC, homeo.ModeLocal} {
		c, err := homeo.New(homeo.Options{Runtime: homeo.RuntimeSim, Sites: 2, Mode: mode, Seed: 1,
			EnableLog: true, LocalExecTime: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cls, err := c.Register(homeo.ClassSpec{
			L:       "transaction Deposit(n) { v := read(b); write(b = v + n) }",
			Bounds:  map[string][2]int64{"n": {1, 10}},
			Initial: map[string]int64{"b": math.MaxInt64 - 10},
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		sess, err := c.SessionAt(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{4, 6} {
			if res, err := sess.Submit(ctx, cls, n); err != nil || !res.Committed {
				t.Fatalf("%v: Deposit(%d) = (%+v, %v), want a commit", mode, n, res, err)
			}
		}
		res, err := sess.Submit(ctx, cls, 1)
		if !errors.Is(err, homeo.ErrAborted) || !strings.Contains(err.Error(), "integer overflow") || res.Committed {
			t.Fatalf("%v: Deposit(1) at MaxInt64 = (%+v, %v), want ErrAborted for the overflow", mode, res, err)
		}
		if got := c.System().Stores[0].Get("b") + c.System().Stores[0].Get(lang.DeltaObj("b", 0)); got != math.MaxInt64 {
			t.Fatalf("%v: site 0 reads b = %d after the abort, want MaxInt64", mode, got)
		}
		if st := c.Stats(); st.Livelocked != 0 || c.Committed() != 2 && mode != homeo.ModeLocal {
			t.Fatalf("%v: %d livelocked, %d logged, want 0 and the 2 deposits", mode, st.Livelocked, c.Committed())
		}
		if mode != homeo.ModeLocal {
			if err := c.CheckReplayEquivalence(); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
		}
	}
}
