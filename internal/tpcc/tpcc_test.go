package tpcc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lang"
	"repro/internal/treaty"
	"repro/internal/workload"
)

func mustNew(t *testing.T, cfg Config) *Workload {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func small(t *testing.T, nSites int) *Workload {
	return mustNew(t, Config{
		Warehouses:            2,
		DistrictsPerWarehouse: 2,
		StockPerWarehouse:     10,
		Customers:             20,
		NSites:                nSites,
		StockMin:              0,
		StockMax:              100,
		H:                     10,
		Seed:                  1,
	})
}

func TestSymbolicTableShape(t *testing.T) {
	w := small(t, 2)
	if n := len(w.table.Rows); n != 2 {
		t.Fatalf("New Order table rows = %d, want 2\n%s", n, w.table)
	}
}

// fakeView for stored-procedure vs L++ comparison.
type fakeView struct {
	db  lang.Database
	log []int64
}

func (v *fakeView) Site() int   { return 0 }
func (v *fakeView) NSites() int { return 1 }
func (v *fakeView) ReadLogical(obj lang.ObjID) (int64, error) {
	return v.db.Get(obj), nil
}
func (v *fakeView) WriteLogical(obj lang.ObjID, val int64) error {
	v.db.Set(obj, val)
	return nil
}
func (v *fakeView) Print(x int64) { v.log = append(v.log, x) }

// TestNewOrderMatchesSource: the Go stored procedure implements the same
// stock rule as the analyzed L++ transaction.
func TestNewOrderMatchesSource(t *testing.T) {
	w := small(t, 2)
	src, err := lang.ParseTransaction(NewOrderSource)
	if err != nil {
		t.Fatal(err)
	}
	for stock := int64(0); stock <= 120; stock += 3 {
		for qty := int64(1); qty <= 5; qty++ {
			res, err := lang.Eval(src, lang.Database{canonStock: stock}, qty)
			if err != nil {
				t.Fatal(err)
			}
			view := &fakeView{db: lang.Database{StockObj(3): stock}}
			req := w.NewOrderRequest(3, qty, 0)
			if err := req.Exec(view, req.Args); err != nil {
				t.Fatal(err)
			}
			if got, want := view.db.Get(StockObj(3)), res.DB.Get(canonStock); got != want {
				t.Fatalf("stock=%d qty=%d: stored proc %d, L++ %d", stock, qty, got, want)
			}
			// Apply agrees with Exec on the stock object.
			applied := lang.Database{StockObj(3): stock}
			req.Apply(applied, req.Args)
			if applied.Get(StockObj(3)) != res.DB.Get(canonStock) {
				t.Fatalf("Apply diverges at stock=%d qty=%d", stock, qty)
			}
		}
	}
}

// TestDeliveryMatchesSource: same for Delivery, including the print log.
func TestDeliveryMatchesSource(t *testing.T) {
	w := small(t, 2)
	src, err := lang.ParseTransaction(DeliverySource)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n <= 5; n++ {
		for low := int64(0); low <= 3; low++ {
			res, err := lang.Eval(src, lang.Database{"unful": n, "low": low})
			if err != nil {
				t.Fatal(err)
			}
			view := &fakeView{db: lang.Database{UnfulObj(1): n, LowObj(1): low}}
			req := w.DeliveryRequest(1)
			if err := req.Exec(view, req.Args); err != nil {
				t.Fatal(err)
			}
			if got, want := view.db.Get(UnfulObj(1)), res.DB.Get("unful"); got != want {
				t.Fatalf("n=%d: unful %d, want %d", n, got, want)
			}
			if got, want := view.db.Get(LowObj(1)), res.DB.Get("low"); got != want {
				t.Fatalf("n=%d: low %d, want %d", n, got, want)
			}
			if !slices.Equal(view.log, res.Log) {
				t.Fatalf("n=%d low=%d: log %v, want %v", n, low, view.log, res.Log)
			}
		}
	}
}

// TestPaymentMatchesSource: balances move identically.
func TestPaymentMatchesSource(t *testing.T) {
	w := small(t, 2)
	src, err := lang.ParseTransaction(PaymentSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lang.Eval(src, lang.Database{"wbal": 100, "dbal": 50, "cbal": 10}, 7)
	if err != nil {
		t.Fatal(err)
	}
	view := &fakeView{db: lang.Database{WBalObj(0): 100, DBalObj(1): 50, CBalObj(2): 10}}
	req := w.PaymentRequest(0, 1, 2, 7)
	if err := req.Exec(view, req.Args); err != nil {
		t.Fatal(err)
	}
	if view.db.Get(WBalObj(0)) != res.DB.Get("wbal") ||
		view.db.Get(DBalObj(1)) != res.DB.Get("dbal") ||
		view.db.Get(CBalObj(2)) != res.DB.Get("cbal") {
		t.Fatalf("payment mismatch: %v vs %v", view.db, res.DB)
	}
	if len(req.Units) != 0 {
		t.Fatal("Payment must have no treaty units (never synchronizes)")
	}
}

func TestStockTreatyHighRegion(t *testing.T) {
	w := small(t, 2)
	g, err := w.BuildGlobal(0, lang.Database{StockObj(0): 60})
	if err != nil {
		t.Fatal(err)
	}
	obj := StockObj(0)
	// Worst case qty = 5: the treaty is logical stock >= 15.
	mk := func(base, d0, d1 int64) lang.Database {
		return lang.Database{obj: base, lang.DeltaObj(obj, 0): d0, lang.DeltaObj(obj, 1): d1}
	}
	if !g.Holds(mk(60, -30, -15)) { // logical 15
		t.Fatalf("treaty should hold at logical 15: %s", g)
	}
	if g.Holds(mk(60, -30, -16)) { // logical 14
		t.Fatalf("treaty should fail at logical 14: %s", g)
	}
}

func TestStockTreatyLowRegion(t *testing.T) {
	w := small(t, 2)
	// Logical stock 8: in the refill region for every qty (8 - 1 < 10),
	// guard is s - qty < 10 strengthened over qty in [1,5] -> s <= 10.
	g, err := w.BuildGlobal(0, lang.Database{StockObj(0): 8})
	if err != nil {
		t.Fatal(err)
	}
	obj := StockObj(0)
	if !g.Holds(lang.Database{obj: 8}) {
		t.Fatalf("low-region treaty should hold at 8: %s", g)
	}
	if g.Holds(lang.Database{obj: 30}) {
		t.Fatalf("low-region treaty should fail at 30: %s", g)
	}
}

func TestStockTreatyBoundaryRegionPins(t *testing.T) {
	w := small(t, 2)
	// Logical stock 12: qty=1 takes the high branch (11 >= 10) but qty=5
	// takes the low branch (7 < 10); no single region covers [1,5], so
	// preprocessing falls back to pinning the value.
	g, err := w.BuildGlobal(0, lang.Database{StockObj(0): 12})
	if err != nil {
		t.Fatal(err)
	}
	obj := StockObj(0)
	if !g.Holds(lang.Database{obj: 12}) {
		t.Fatalf("boundary treaty should hold at 12: %s", g)
	}
	if g.Holds(lang.Database{obj: 11}) || g.Holds(lang.Database{obj: 13}) {
		t.Fatalf("boundary treaty should pin the value: %s", g)
	}
}

func TestDeliveryTreatyPinsLowId(t *testing.T) {
	w := small(t, 2)
	unit := w.deliveryUnit(1)
	folded := lang.Database{UnfulObj(1): 5, LowObj(1): 42}
	g, err := w.BuildGlobal(unit, folded)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Holds(folded) {
		t.Fatal("delivery treaty must hold on current state")
	}
	// Advancing low violates the pin.
	moved := folded.Clone()
	moved[LowObj(1)] = 43
	if g.Holds(moved) {
		t.Fatal("delivery treaty must pin the lowest order id")
	}
	// Dropping the count to zero violates count >= 1.
	drained := folded.Clone()
	drained[UnfulObj(1)] = 0
	if g.Holds(drained) {
		t.Fatal("delivery treaty must keep unfulfilled count >= 1")
	}
	// New orders (count increases) never violate.
	more := folded.Clone()
	more[lang.DeltaObj(UnfulObj(1), 0)] = 3
	if !g.Holds(more) {
		t.Fatal("new orders must not violate the delivery treaty")
	}
}

func TestDeliveryTreatyEmptyQueue(t *testing.T) {
	w := small(t, 2)
	unit := w.deliveryUnit(0)
	folded := lang.Database{UnfulObj(0): 0, LowObj(0): 7}
	g, err := w.BuildGlobal(unit, folded)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Holds(folded) {
		t.Fatal("empty-queue treaty must hold")
	}
	// Inserting into an empty queue violates the count = 0 pin, forcing
	// the synchronization that tells every site the queue is nonempty.
	ins := folded.Clone()
	ins[lang.DeltaObj(UnfulObj(0), 1)] = 1
	if g.Holds(ins) {
		t.Fatal("insert into an empty queue must violate the pin")
	}
}

func TestHotItemSkew(t *testing.T) {
	w := mustNew(t, Config{
		Warehouses: 2, DistrictsPerWarehouse: 2, StockPerWarehouse: 100,
		Customers: 20, NSites: 2, H: 50, HotPercent: 1, Seed: 3,
		MixNewOrder: 100, MixPayment: 0, MixDelivery: 0,
	})
	// 200 items, 1% hot = 2 hot items. With H=50, about half the New
	// Orders hit those 2 items.
	rng := rand.New(rand.NewSource(11))
	hot := 0
	const n = 5000
	for i := 0; i < n; i++ {
		req := w.Next(rng, 0)
		if req.Name != "NewOrder" {
			t.Fatalf("mix broken: got %s", req.Name)
		}
		if int(req.Args[0]) < w.hotCount {
			hot++
		}
	}
	frac := float64(hot) / n * 100
	if frac < 40 || frac > 60 {
		t.Fatalf("hot fraction = %.1f%%, want ~50%%", frac)
	}
}

func TestMixProportions(t *testing.T) {
	w := small(t, 2) // default 45/45/10
	rng := rand.New(rand.NewSource(5))
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[w.Next(rng, 0).Name]++
	}
	frac := func(name string) float64 { return float64(counts[name]) / n * 100 }
	if f := frac("NewOrder"); f < 42 || f > 48 {
		t.Fatalf("NewOrder = %.1f%%, want ~45%%", f)
	}
	if f := frac("Payment"); f < 42 || f > 48 {
		t.Fatalf("Payment = %.1f%%, want ~45%%", f)
	}
	if f := frac("Delivery"); f < 8 || f > 12 {
		t.Fatalf("Delivery = %.1f%%, want ~10%%", f)
	}
}

func TestStockModelRespectsSemantics(t *testing.T) {
	w := small(t, 2)
	m := w.Model(0)
	rng := rand.New(rand.NewSource(2))
	var futures []lang.Database
	m.SampleFuture(rng, lang.Database{StockObj(0): 80}, 20, func(d lang.Database) {
		futures = append(futures, d.Clone())
	})
	if len(futures) != 20 {
		t.Fatalf("len = %d", len(futures))
	}
	prev := int64(80)
	for i, db := range futures {
		logical := lang.LogicalValue(db, StockObj(0), 2)
		drop := prev - logical
		if drop < 1 || drop > 5 {
			if logical <= prev+91 && logical > prev {
				// refill happened
				prev = logical
				continue
			}
			t.Fatalf("step %d: drop %d outside qty range", i, drop)
		}
		prev = logical
	}
}

func TestUnitLayout(t *testing.T) {
	w := small(t, 2) // 2 warehouses x 10 stock = 20 stock units + 4 delivery
	if w.NumUnits() != 24 {
		t.Fatalf("units = %d, want 24", w.NumUnits())
	}
	if objs := w.UnitObjects(5); len(objs) != 1 || objs[0] != StockObj(5) {
		t.Fatalf("stock unit objects = %v", objs)
	}
	if objs := w.UnitObjects(21); len(objs) != 2 {
		t.Fatalf("delivery unit objects = %v", objs)
	}
}

func TestInitialStockRange(t *testing.T) {
	w := small(t, 2)
	db := w.InitialDB()
	for s := 0; s < 20; s++ {
		v := db.Get(StockObj(s))
		if v < 0 || v > 100 {
			t.Fatalf("stock[%d] = %d outside [0,100]", s, v)
		}
	}
}

var _ workload.Workload = (*Workload)(nil)
var _ treaty.WorkloadModel = (*stockModel)(nil)

// TestSkewedWarehouseDrift: with warehouse affinity enabled, a site's
// New Orders concentrate in its current home warehouse, and the home
// rotates with the drift epoch.
func TestSkewedWarehouseDrift(t *testing.T) {
	w, err := New(Config{
		Warehouses: 4, DistrictsPerWarehouse: 2, StockPerWarehouse: 25,
		Customers: 50, NSites: 2, MixNewOrder: 100, MixPayment: 0, MixDelivery: 0,
		WarehouseAffinity: 95, RotateEvery: 1000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	warehouseOf := func(item int64) int { return int(item) / 25 }
	// Epoch 0: site 0's home warehouse is 0.
	home := 0
	for i := 0; i < 500; i++ {
		req := w.Next(rng, 0)
		if req.Name != "NewOrder" {
			t.Fatalf("pure New Order mix drew %s", req.Name)
		}
		if warehouseOf(req.Args[0]) == 0 {
			home++
		}
		w.Next(rng, 1)
	}
	if home < 420 { // 95% affinity less sampling slop
		t.Fatalf("only %d/500 New Orders hit site 0's home warehouse", home)
	}
	// The 1000 draws advanced one epoch: site 0's home is warehouse 1.
	moved := 0
	for i := 0; i < 500; i++ {
		req := w.Next(rng, 0)
		if warehouseOf(req.Args[0]) == 1 {
			moved++
		}
		w.Next(rng, 1)
	}
	if moved < 420 {
		t.Fatalf("after rotation only %d/500 New Orders hit the new home warehouse", moved)
	}
}
