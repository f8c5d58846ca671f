package workload_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lang"
	"repro/internal/micro"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

// storeView is a SiteView over a real store transaction, so Exec goes
// through the 2PL lock manager.
type storeView struct {
	tx  *store.Txn
	log []int64
}

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

// TestRebuildMatchesDraws: every request micro and TPC-C draw is made again
// by Rebuild from its name and arguments, with the same units, objects and
// effect on the database; a name neither has wraps ErrUnknownTxn, and
// arguments naming an object outside the database are refused.
func TestRebuildMatchesDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var view workload.FoldedView
	for _, w := range []workload.Workload{newMicro(t), newTPCC(t)} {
		drawn, rebuilt := w.InitialDB(), w.InitialDB()
		for i := 0; i < 300; i++ {
			req := w.Next(rng, i%2)
			again, err := w.Rebuild(req.Name, req.Args)
			if err != nil {
				t.Fatalf("%s: Rebuild(%s, %v): %v", w.Name(), req.Name, req.Args, err)
			}
			if again.Name != req.Name || !reflect.DeepEqual(again.Args, req.Args) ||
				!reflect.DeepEqual(again.Units, req.Units) || !reflect.DeepEqual(again.Objects, req.Objects) {
				t.Fatalf("%s: rebuilt %+v, drawn %+v", w.Name(), again, req)
			}
			if log, againLog := view.Run(drawn, req), view.Run(rebuilt, again); !reflect.DeepEqual(log, againLog) {
				t.Fatalf("%s: %s printed %v drawn, %v rebuilt", w.Name(), req.Name, log, againLog)
			}
		}
		if !drawn.Equal(rebuilt) {
			t.Fatalf("%s: the rebuilt requests left another database", w.Name())
		}
		if _, err := w.Rebuild("Withdraw", nil); !errors.Is(err, workload.ErrUnknownTxn) {
			t.Fatalf("%s: Rebuild of an unknown name: %v, want ErrUnknownTxn", w.Name(), err)
		}
	}
	for _, bad := range []struct {
		w    workload.Workload
		name string
		args []int64
	}{
		{newMicro(t), "Order", []int64{16}},
		{newTPCC(t), "NewOrder", []int64{20, 1, 0}},
		{newTPCC(t), "Payment", []int64{0, 1, 2}},
		{newTPCC(t), "Delivery", []int64{-1}},
	} {
		if _, err := bad.w.Rebuild(bad.name, bad.args); err == nil || errors.Is(err, workload.ErrUnknownTxn) {
			t.Errorf("Rebuild(%s, %v): %v, want a refusal of the arguments", bad.name, bad.args, err)
		}
	}
}

// TestTPCCNewOrderRestockRule pins the TPC-C stock rule: subtract the
// quantity, adding 91 when the result would drop below 10.
func TestTPCCNewOrderRestockRule(t *testing.T) {
	w := newTPCC(t)
	stock := tpcc.StockObj(3)
	req := w.NewOrderRequest(3, 5, 0)
	var view workload.FoldedView
	db := lang.Database{stock: 12}
	view.Run(db, req)
	if got := db.Get(stock); got != 12-5+91 {
		t.Fatalf("stock after restock order = %d, want %d", got, 12-5+91)
	}
	db = lang.Database{stock: 50}
	view.Run(db, req)
	if got := db.Get(stock); got != 45 {
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
