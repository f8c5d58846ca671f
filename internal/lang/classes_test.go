package lang_test

import (
	"os"
	"testing"

	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/tpcc"
)

// TestShippedClassesKeepFootprintLaws: every class the micro and TPC-C
// workloads build, and the top-k insert (testdata/topk.l), keeps the
// footprint laws, and its rewrite at each site of 3 touches base + Σ
// deltas exactly where the class touches the object: with the objects the
// workload replicates, with every object it writes, and with its whole
// footprint, as a registered class is rewritten.
func TestShippedClassesKeepFootprintLaws(t *testing.T) {
	topk, err := os.ReadFile("testdata/topk.l")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src        string
		replicated lang.ObjID
	}{
		{micro.Source(100), "q"},
		{tpcc.NewOrderSource, "q"},
		{tpcc.PaymentSource, "wbal"},
		{tpcc.DeliverySource, "unful"},
		{string(topk), "top1"},
	} {
		txn := lang.MustParse(c.src)
		if err := lang.CheckFootprintLaws(txn); err != nil {
			t.Fatalf("%s: %v", txn.Name, err)
		}
		low, err := lang.Lower(txn)
		if err != nil {
			t.Fatal(err)
		}
		reads, writes := lang.Footprint(low.Body, nil)
		whole := map[lang.ObjID]bool{}
		for obj := range reads {
			whole[obj] = true
		}
		for obj := range writes {
			whole[obj] = true
		}
		for _, replicated := range []map[lang.ObjID]bool{{c.replicated: true}, writes, whole} {
			for k := 0; k < 3; k++ {
				if err := lang.CheckRewriteLaw(low, k, 3, replicated); err != nil {
					t.Fatalf("%s: %v", txn.Name, err)
				}
			}
		}
	}
}
