package homeo_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/homeo"
)

// TestRegisterBatch: a batch registers atomically, every class is
// immediately submittable, and isomorphic members are served from the
// analysis cache (visible through Stats).
func TestRegisterBatch(t *testing.T) {
	c := simCluster(t, homeo.Options{})
	specs := make([]homeo.ClassSpec, 6)
	for i := range specs {
		specs[i] = homeo.ClassSpec{
			L: fmt.Sprintf(`transaction Wd%d(n) {
				v := read(item%d);
				if (v - n > 0) then write(item%d = v - n) else skip
			}`, i, i, i),
			Bounds:  map[string][2]int64{"n": {1, 5}},
			Initial: map[string]int64{fmt.Sprintf("item%d", i): 1000},
		}
	}
	ts, err := c.RegisterBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(specs) {
		t.Fatalf("registered %d classes, want %d", len(ts), len(specs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess := c.Session()
	for i, cls := range ts {
		if got, want := cls.Name(), fmt.Sprintf("Wd%d", i); got != want {
			t.Fatalf("class %d named %q, want %q", i, got, want)
		}
		res, err := sess.Submit(ctx, cls, 2)
		if err != nil {
			t.Fatalf("submit %s: %v", cls.Name(), err)
		}
		if !res.Committed {
			t.Fatalf("submit %s: not committed", cls.Name())
		}
	}
	st := c.Stats()
	// The six classes are isomorphic: one scratch build, five cache hits.
	if st.AnalysisCacheMisses != 1 || st.AnalysisCacheHits != 5 {
		t.Fatalf("analysis cache hits=%d misses=%d, want 5/1",
			st.AnalysisCacheHits, st.AnalysisCacheMisses)
	}
}

// TestRegisterBatchAtomic: one bad class in the batch rejects the whole
// batch — nothing registers, and the same names register cleanly after.
func TestRegisterBatchAtomic(t *testing.T) {
	c := simCluster(t, homeo.Options{})
	specs := []homeo.ClassSpec{
		{L: depositSrc, Initial: map[string]int64{"acct": 100}},
		{L: "transaction Broken(n) { v := read(", Bounds: map[string][2]int64{"n": {1, 2}}},
	}
	if _, err := c.RegisterBatch(specs); err == nil {
		t.Fatal("batch with a broken class registered")
	}
	if got := c.Classes(); len(got) != 0 {
		t.Fatalf("partial registration survived the failed batch: %v", got)
	}
	// A duplicate inside the batch must also reject atomically — refused
	// before either copy registers.
	dup := []homeo.ClassSpec{
		{L: depositSrc, Initial: map[string]int64{"acct": 100}},
		{L: depositSrc, Initial: map[string]int64{"acct": 100}},
	}
	if _, err := c.RegisterBatch(dup); err == nil {
		t.Fatal("batch with a duplicate class registered")
	}
	if got := c.Classes(); len(got) != 0 {
		t.Fatalf("partial registration survived the duplicate batch: %v", got)
	}
	if _, err := c.Register(homeo.ClassSpec{L: depositSrc, Initial: map[string]int64{"acct": 100}}); err != nil {
		t.Fatalf("clean registration after failed batches: %v", err)
	}
}
