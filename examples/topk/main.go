// Top-k: the paper's motivating example (Section 1, Figures 1-2). An
// aggregator site maintains a top-2 list sorted by value; item sites
// receive inserts. Analyzing the aggregator's update transaction shows
// its behavior is insensitive to inserts below the current minimum — the
// derived treaty lets item sites cache that minimum and stay silent for
// most inserts, which is exactly the improved algorithm of Figure 2.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/lang"
	"repro/internal/symtab"
)

// insertSrc is the aggregator's top-2 update: top1 >= top2 are the
// current top values; an insert rebuilds the list when it beats them.
const insertSrc = `
transaction Insert(v) {
	t1 := read(top1);
	t2 := read(top2);
	if (v > t2) then {
		if (v > t1) then {
			write(top1 = v);
			write(top2 = t1)
		} else
			write(top2 = v)
	} else
		skip
}`

func main() {
	txn := lang.MustParse(insertSrc)
	tbl, err := symtab.Build(txn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tbl)

	// The initial top-2 list of Figure 1: values 100 and 91.
	db := lang.Database{"top1": 100, "top2": 91}
	fmt.Printf("aggregator state: top1=%d top2=%d\n\n", db["top1"], db["top2"])

	// The "silent" row: find the symbolic-table row whose residual
	// performs no writes — inserts satisfying its guard cannot change the
	// aggregator's state, so they need not be sent at all.
	silent := -1
	for i, row := range tbl.Rows {
		if _, writes := lang.Footprint(row.Residual, nil); len(writes) == 0 {
			silent = i
			break
		}
	}
	if silent < 0 {
		log.Fatal("no silent row found")
	}
	fmt.Printf("analysis: inserts satisfying  %s  leave the top-2 unchanged\n", tbl.Rows[silent].Guard)
	fmt.Printf("=> each item site caches min=%d and only contacts the aggregator above it\n\n", db["top2"])

	// Simulate Figure 2: three item sites receive 1000 inserts; count the
	// messages the cached-min treaty saves. Correctness check: the silent
	// guard and an actual evaluation must always agree.
	rng := rand.New(rand.NewSource(1))
	messages, silenced := 0, 0
	for i := 0; i < 1000; i++ {
		v := int64(rng.Intn(120))
		guardHolds, err := lang.EvalBool(tbl.Rows[silent].Guard,
			&lang.Env{DB: db, Params: map[string]int64{"v": v}})
		if err != nil {
			log.Fatal(err)
		}
		res, err := lang.Eval(txn, db, v)
		if err != nil {
			log.Fatal(err)
		}
		changed := !res.DB.Equal(db)
		if guardHolds == changed {
			log.Fatalf("analysis contradicts execution at v=%d", v)
		}
		if guardHolds {
			silenced++ // stays local at the item site
			continue
		}
		// The insert may change the top-2: send it to the aggregator,
		// apply, and broadcast the new minimum (a new treaty).
		messages++
		db = res.DB
	}
	fmt.Printf("1000 inserts: %d aggregator messages, %d handled silently (%.1f%% saved)\n",
		messages, silenced, float64(silenced)/10)
	fmt.Printf("final top-2: top1=%d top2=%d\n", db["top1"], db["top2"])
}
