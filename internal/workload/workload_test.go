package workload_test

import (
	"math/rand"
	"testing"

	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

// dbView is a scratch SiteView over a plain logical database: reads and
// writes go straight to the map (the single-site / post-fold semantics).
type dbView struct {
	db  lang.Database
	log []int64
}

func (v *dbView) Site() int   { return 0 }
func (v *dbView) NSites() int { return 1 }
func (v *dbView) ReadLogical(obj lang.ObjID) (int64, error) {
	return v.db.Get(obj), nil
}
func (v *dbView) WriteLogical(obj lang.ObjID, val int64) error {
	v.db.Set(obj, val)
	return nil
}
func (v *dbView) Print(x int64) { v.log = append(v.log, x) }

// storeView is a SiteView over a real store transaction, so Exec goes
// through the 2PL lock manager.
type storeView struct {
	tx  *store.Txn
	log []int64
}

func (v *storeView) Site() int   { return 0 }
func (v *storeView) NSites() int { return 1 }
func (v *storeView) ReadLogical(obj lang.ObjID) (int64, error) {
	return v.tx.Read(obj)
}
func (v *storeView) WriteLogical(obj lang.ObjID, val int64) error {
	return v.tx.Write(obj, val)
}
func (v *storeView) Print(x int64) { v.log = append(v.log, x) }

func newMicro(t *testing.T) *micro.Workload {
	t.Helper()
	w, err := micro.New(micro.Config{Items: 16, Refill: 100, ItemsPerTxn: 2, NSites: 2})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMicroRequestConstruction pins the shape of a microbenchmark order:
// units and objects line up with the requested items.
func TestMicroRequestConstruction(t *testing.T) {
	w := newMicro(t)
	req := w.MakeRequest([]int{3, 5})
	if req.Name != "Order" {
		t.Fatalf("Name = %q, want Order", req.Name)
	}
	if len(req.Args) != 2 || req.Args[0] != 3 || req.Args[1] != 5 {
		t.Fatalf("Args = %v, want [3 5]", req.Args)
	}
	if len(req.Units) != 2 || req.Units[0] != 3 || req.Units[1] != 5 {
		t.Fatalf("Units = %v, want [3 5]", req.Units)
	}
	want := []lang.ObjID{micro.ItemObj(3), micro.ItemObj(5)}
	if len(req.Objects) != 2 || req.Objects[0] != want[0] || req.Objects[1] != want[1] {
		t.Fatalf("Objects = %v, want %v", req.Objects, want)
	}
	for _, unit := range req.Units {
		if unit < 0 || unit >= w.NumUnits() {
			t.Fatalf("unit %d out of range [0, %d)", unit, w.NumUnits())
		}
	}
}

// TestMicroNextDrawsValidRequests: every request drawn from the stream
// has in-range units matching its objects.
func TestMicroNextDrawsValidRequests(t *testing.T) {
	w := newMicro(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		req := w.Next(rng, i%2)
		if len(req.Units) != 2 || len(req.Objects) != 2 {
			t.Fatalf("request %d: %d units, %d objects, want 2 and 2", i, len(req.Units), len(req.Objects))
		}
		if req.Units[0] == req.Units[1] {
			t.Fatalf("request %d orders the same item twice: %v", i, req.Units)
		}
		for j, unit := range req.Units {
			if req.Objects[j] != micro.ItemObj(unit) {
				t.Fatalf("request %d: object %s does not match unit %d", i, req.Objects[j], unit)
			}
		}
	}
}

// TestMicroExecMatchesApply: the stored procedure (Exec against a view)
// and the logical effect (Apply against a folded database) agree,
// including the refill edge at qty <= 1.
func TestMicroExecMatchesApply(t *testing.T) {
	w, err := micro.New(micro.Config{Items: 4, Refill: 50, NSites: 1, InitialQty: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := w.MakeRequest([]int{0})
	execDB := w.InitialDB()
	applyDB := w.InitialDB()
	// Drive item 0 down through the refill boundary:
	// 2 -> 1 -> 49 -> 48 -> 47 -> 46.
	for step := 0; step < 5; step++ {
		if err := req.Exec(&dbView{db: execDB}, req.Args); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		req.Apply(applyDB, req.Args)
		if got, want := execDB.Get(micro.ItemObj(0)), applyDB.Get(micro.ItemObj(0)); got != want {
			t.Fatalf("step %d: Exec state %d, Apply state %d", step, got, want)
		}
	}
	if got := execDB.Get(micro.ItemObj(0)); got != 46 {
		t.Fatalf("after 5 orders from qty 2 with refill 50: qty = %d, want 46", got)
	}
}

// TestMicroExecAgainstStore runs the stored procedure through a real
// store transaction inside the simulation engine: writes must be
// tentative until commit and durable after.
func TestMicroExecAgainstStore(t *testing.T) {
	w, err := micro.New(micro.Config{Items: 4, Refill: 100, NSites: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(1)
	s := store.New(e, w.InitialDB())
	req := w.MakeRequest([]int{2})
	var ran bool
	e.Spawn(0, func(p rt.Proc) {
		// Aborted execution leaves no trace.
		tx := s.Begin(p)
		if err := req.Exec(&storeView{tx: tx}, req.Args); err != nil {
			t.Errorf("Exec: %v", err)
			return
		}
		tx.Abort()
		if got := s.Get(micro.ItemObj(2)); got != 100 {
			t.Errorf("after abort: qty = %d, want 100", got)
			return
		}
		// Committed execution is durable.
		tx = s.Begin(p)
		if err := req.Exec(&storeView{tx: tx}, req.Args); err != nil {
			t.Errorf("Exec: %v", err)
			return
		}
		tx.Commit()
		if got := s.Get(micro.ItemObj(2)); got != 99 {
			t.Errorf("after commit: qty = %d, want 99", got)
			return
		}
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("store transaction process did not complete")
	}
}

func newTPCC(t *testing.T) *tpcc.Workload {
	t.Helper()
	w, err := tpcc.New(tpcc.Config{
		Warehouses: 2, DistrictsPerWarehouse: 2, StockPerWarehouse: 10,
		Customers: 20, NSites: 2, H: 10,
		MixNewOrder: 45, MixPayment: 45, MixDelivery: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTPCCRequestConstruction checks units and logical footprints of the
// three TPC-C transaction types.
func TestTPCCRequestConstruction(t *testing.T) {
	w := newTPCC(t)
	no := w.NewOrderRequest(1, 3, 2)
	if no.Name != "NewOrder" || len(no.Units) != 2 || len(no.Objects) != 2 {
		t.Fatalf("NewOrder = %+v, want 2 units and 2 objects", no)
	}
	pay := w.PaymentRequest(0, 1, 5, 10)
	if pay.Name != "Payment" || len(pay.Units) != 0 {
		t.Fatalf("Payment = %+v, want no treaty units", pay)
	}
	del := w.DeliveryRequest(3)
	if del.Name != "Delivery" || len(del.Units) != 1 || len(del.Objects) != 2 {
		t.Fatalf("Delivery = %+v, want 1 unit and 2 objects", del)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		req := w.Next(rng, i%2)
		for _, unit := range req.Units {
			if unit < 0 || unit >= w.NumUnits() {
				t.Fatalf("request %d (%s): unit %d out of range [0, %d)",
					i, req.Name, unit, w.NumUnits())
			}
		}
	}
}

// TestTPCCExecMatchesApply cross-checks Exec and Apply for each TPC-C
// transaction type on the initial database.
func TestTPCCExecMatchesApply(t *testing.T) {
	w := newTPCC(t)
	reqs := []workload.Request{
		w.NewOrderRequest(0, 4, 1),
		w.PaymentRequest(1, 2, 7, 25),
		w.DeliveryRequest(0), // empty queue: must be a no-op
	}
	for _, req := range reqs {
		execDB := w.InitialDB()
		applyDB := w.InitialDB()
		if err := req.Exec(&dbView{db: execDB}, req.Args); err != nil {
			t.Fatalf("%s: Exec: %v", req.Name, err)
		}
		req.Apply(applyDB, req.Args)
		for _, obj := range execDB.Objects() {
			if execDB.Get(obj) != applyDB.Get(obj) {
				t.Fatalf("%s: %s = %d after Exec, %d after Apply",
					req.Name, obj, execDB.Get(obj), applyDB.Get(obj))
			}
		}
	}
}

// TestTPCCNewOrderRestockRule pins the TPC-C stock rule: subtract the
// quantity, adding 91 when the result would drop below 10.
func TestTPCCNewOrderRestockRule(t *testing.T) {
	w := newTPCC(t)
	stock := tpcc.StockObj(3)
	req := w.NewOrderRequest(3, 5, 0)
	v := &dbView{db: lang.Database{stock: 12}}
	if err := req.Exec(v, req.Args); err != nil {
		t.Fatal(err)
	}
	if got := v.db.Get(stock); got != 12-5+91 {
		t.Fatalf("stock after restock order = %d, want %d", got, 12-5+91)
	}
	v = &dbView{db: lang.Database{stock: 50}}
	if err := req.Exec(v, req.Args); err != nil {
		t.Fatal(err)
	}
	if got := v.db.Get(stock); got != 45 {
		t.Fatalf("stock after plain order = %d, want 45", got)
	}
}

// TestRotor: epochs advance exactly every period ticks; non-positive
// periods never rotate.
func TestRotor(t *testing.T) {
	r := workload.NewRotor(3)
	var got []int
	for i := 0; i < 7; i++ {
		got = append(got, r.Tick())
	}
	want := []int{0, 0, 0, 1, 1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tick %d: epoch %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	frozen := workload.NewRotor(0)
	for i := 0; i < 5; i++ {
		if e := frozen.Tick(); e != 0 {
			t.Fatalf("period-0 rotor rotated to epoch %d", e)
		}
	}
}
