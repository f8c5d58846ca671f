// Package tpcc implements the Section 6.2 evaluation workload: the three
// most frequent TPC-C transactions (New Order, Payment, Delivery) over a
// replicated warehouse database, with the treaties of Appendix E:
//
//   - New Order is governed by a per-stock-entry treaty derived from
//     program analysis of the (replica-rewritten) transaction, bounding
//     the stock quantity away from the branch boundary; parameters are
//     strengthened to their worst case (order quantity 1..5).
//   - Payment updates warehouse/district/customer balances that no
//     transaction reads; after the Appendix B delta rewrite it performs
//     only blind local writes and needs no treaty — it never synchronizes.
//   - Delivery must fulfill the globally-lowest unprocessed order id, so
//     its treaty pins that id to its current value (the Appendix C.3
//     treatment of remote reads) and requires the unfulfilled-order count
//     to stay positive; every productive Delivery violates the pin and
//     synchronizes, exactly as the paper describes.
//
// Order ids are generated site-striped (id = n*K + site) so New Order
// never needs synchronization for id assignment, per the paper's
// replicated-ordering design in Appendix E.1.
package tpcc

import (
	"fmt"
	"math/rand"

	"repro/internal/lang"
	"repro/internal/lia"
	"repro/internal/logic"
	"repro/internal/symtab"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// canonStock is the canonical stock object analyzed once and renamed per
// concrete stock entry.
const canonStock = lang.ObjID("q")

// NewOrderSource is the L++ source of the (single-item) New Order stock
// update, following the TPC-C stock rule: subtract the quantity, adding
// 91 when the result would drop below 10.
const NewOrderSource = `
transaction NewOrder(qty) {
	s := read(q);
	if (s - qty >= 10) then
		write(q = s - qty)
	else
		write(q = s - qty + 91)
}`

// PaymentSource is the L++ source of the balance updates (canonical
// objects wbal, dbal, cbal).
const PaymentSource = `
transaction Payment(amount) {
	w := read(wbal);
	d := read(dbal);
	c := read(cbal);
	write(wbal = w + amount);
	write(dbal = d + amount);
	write(cbal = c - amount)
}`

// DeliverySource is the L++ source of the order-fulfillment step
// (canonical objects unful and low).
const DeliverySource = `
transaction Delivery() {
	n := read(unful);
	if (n > 0) then {
		l := read(low);
		write(low = l + 1);
		write(unful = n - 1);
		print(l)
	} else
		skip
}`

// Config scales the benchmark.
type Config struct {
	// Warehouses, DistrictsPerWarehouse, and StockPerWarehouse set the
	// schema scale. The paper uses 10 warehouses, 10 districts, and
	// 100,000 total stock entries; defaults are smaller so simulations
	// stay fast, with identical structure.
	Warehouses            int
	DistrictsPerWarehouse int
	StockPerWarehouse     int
	Customers             int
	NSites                int
	// InitialStock range: uniform in [StockMin, StockMax] (paper: 0..100).
	StockMin, StockMax int64
	// HotPercent marks this percentage of items as hot (paper: 1%).
	HotPercent float64
	// H is the percentage of New Order transactions that order hot items.
	H float64
	// Mix gives the transaction percentages (NewOrder, Payment, Delivery);
	// the paper uses 45/45/10 and 49/49/2.
	MixNewOrder, MixPayment, MixDelivery int
	// Seed controls data generation.
	Seed int64
	// WarehouseAffinity enables the skewed-warehouse drift scenario: this
	// percentage of each site's New Orders target the site's current home
	// warehouse instead of the global item distribution, so stock demand
	// is heavily skewed toward one site per warehouse. Zero disables it.
	WarehouseAffinity float64
	// RotateEvery advances every site's home warehouse by one after this
	// many request draws, drifting the skew across the cluster. Zero
	// never rotates.
	RotateEvery int
}

// Drift returns the configuration with the skewed-warehouse scenario on, as
// the drift sweep and homeostasis-serve -drift run it: 95% of each site's
// New Orders target its rotating home warehouse, and the rotation period
// scales with the stock table.
func (c Config) Drift() Config {
	c.WarehouseAffinity = 95
	c.RotateEvery = 100 * c.StockPerWarehouse
	return c
}

// Workload implements workload.Workload for TPC-C.
type Workload struct {
	cfg        Config
	stockCount int
	hotCount   int
	table      *symtab.Table // canonical rewritten New Order table
	initial    lang.Database
	rotor      *workload.Rotor // drift clock (skewed-warehouse rotation)
}

// New generates the database and runs the offline analysis.
func New(cfg Config) (*Workload, error) {
	if cfg.Warehouses == 0 {
		cfg.Warehouses = 10
	}
	if cfg.DistrictsPerWarehouse == 0 {
		cfg.DistrictsPerWarehouse = 10
	}
	if cfg.StockPerWarehouse == 0 {
		cfg.StockPerWarehouse = 100
	}
	if cfg.Customers == 0 {
		cfg.Customers = 1000
	}
	if cfg.NSites <= 0 {
		return nil, fmt.Errorf("tpcc: NSites must be positive")
	}
	if cfg.StockMax == 0 {
		cfg.StockMax = 100
	}
	if cfg.HotPercent == 0 {
		cfg.HotPercent = 1
	}
	if cfg.MixNewOrder == 0 && cfg.MixPayment == 0 && cfg.MixDelivery == 0 {
		cfg.MixNewOrder, cfg.MixPayment, cfg.MixDelivery = 45, 45, 10
	}
	w := &Workload{
		cfg:        cfg,
		stockCount: cfg.Warehouses * cfg.StockPerWarehouse,
	}
	w.hotCount = int(float64(w.stockCount) * cfg.HotPercent / 100)
	if w.hotCount < 1 {
		w.hotCount = 1
	}
	// Offline analysis of the canonical New Order transaction: replica
	// rewrite, then symbolic table.
	txn, err := lang.ParseTransaction(NewOrderSource)
	if err != nil {
		return nil, err
	}
	rw := lang.Simplify(lang.ReplicaRewrite(txn, 0, cfg.NSites, map[lang.ObjID]bool{canonStock: true}))
	table, err := symtab.Build(rw)
	if err != nil {
		return nil, err
	}
	w.table = table

	// Data generation.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	db := lang.Database{}
	for s := 0; s < w.stockCount; s++ {
		span := cfg.StockMax - cfg.StockMin + 1
		db[StockObj(s)] = cfg.StockMin + rng.Int63n(span)
	}
	for wd := 0; wd < cfg.Warehouses*cfg.DistrictsPerWarehouse; wd++ {
		db[UnfulObj(wd)] = 0
		db[LowObj(wd)] = 0
	}
	w.initial = db
	w.rotor = workload.NewRotor(cfg.RotateEvery)
	return w, nil
}

// Object naming.

// StockObj names a stock entry's quantity.
func StockObj(s int) lang.ObjID { return lang.ObjID(fmt.Sprintf("stock[%d]", s)) }

// UnfulObj names the unfulfilled-order count of a (warehouse, district).
func UnfulObj(wd int) lang.ObjID { return lang.ObjID(fmt.Sprintf("unful[%d]", wd)) }

// LowObj names the lowest unprocessed order id of a (warehouse,
// district).
func LowObj(wd int) lang.ObjID { return lang.ObjID(fmt.Sprintf("low[%d]", wd)) }

// WBalObj, DBalObj and CBalObj name the Payment balances.
func WBalObj(w int) lang.ObjID  { return lang.ObjID(fmt.Sprintf("wbal[%d]", w)) }
func DBalObj(wd int) lang.ObjID { return lang.ObjID(fmt.Sprintf("dbal[%d]", wd)) }
func CBalObj(c int) lang.ObjID  { return lang.ObjID(fmt.Sprintf("cbal[%d]", c)) }

// Name implements workload.Workload.
func (w *Workload) Name() string { return "tpcc" }

// InitialDB implements workload.Workload.
func (w *Workload) InitialDB() lang.Database { return w.initial.Clone() }

// Unit layout: stock units first, then one delivery unit per
// (warehouse, district).
func (w *Workload) NumUnits() int {
	return w.stockCount + w.cfg.Warehouses*w.cfg.DistrictsPerWarehouse
}

func (w *Workload) deliveryUnit(wd int) int { return w.stockCount + wd }

// UnitObjects implements workload.Workload.
func (w *Workload) UnitObjects(unit int) []lang.ObjID {
	if unit < w.stockCount {
		return []lang.ObjID{StockObj(unit)}
	}
	wd := unit - w.stockCount
	return []lang.ObjID{UnfulObj(wd), LowObj(wd)}
}

// BuildGlobal implements workload.Workload.
func (w *Workload) BuildGlobal(unit int, folded lang.Database) (treaty.Global, error) {
	if unit < w.stockCount {
		return w.buildStockGlobal(unit, folded)
	}
	return w.buildDeliveryGlobal(unit-w.stockCount, folded)
}

// buildStockGlobal matches the New Order symbolic table on the
// consolidated stock value and preprocesses the guard with the order
// quantity's worst case (Appendix C.1 + parameter bounds).
func (w *Workload) buildStockGlobal(unit int, folded lang.Database) (treaty.Global, error) {
	canonical := lang.Database{canonStock: folded.Get(StockObj(unit))}
	// The guard mentions the qty parameter; match with a representative
	// value and strengthen over [1,5].
	params := map[string]int64{"qty": 1}
	row, err := w.table.MatchRow(canonical, params)
	if err != nil {
		// The low-stock region: match with the worst-case parameter.
		params["qty"] = 5
		row, err = w.table.MatchRow(canonical, params)
		if err != nil {
			return treaty.Global{}, err
		}
	}
	g, err := treaty.Preprocess(w.table.Rows[row].Guard, canonical, params,
		treaty.ParamBounds{"qty": {1, 5}})
	if err != nil {
		// The guard holds for the representative parameter but not for the
		// whole range: fall back to pinning the value (forces
		// synchronization until the state leaves the boundary region).
		g = treaty.PinGlobal([]lang.ObjID{canonStock}, w.cfg.NSites, canonical)
	}
	concrete := StockObj(unit)
	return g.Rename(func(obj lang.ObjID) lang.ObjID {
		if base, site, ok := lang.IsDeltaObj(obj); ok && base == canonStock {
			return lang.DeltaObj(concrete, site)
		}
		if obj == canonStock {
			return concrete
		}
		return obj
	}), nil
}

// buildDeliveryGlobal constructs the Appendix E delivery treaty directly:
// the lowest unprocessed order id is fixed to its current value (the
// Appendix C.3 pin for remote reads), and when unfulfilled orders exist,
// their count must remain at least one so Delivery never sees a
// spuriously empty queue.
func (w *Workload) buildDeliveryGlobal(wd int, folded lang.Database) (treaty.Global, error) {
	low := LowObj(wd)
	unful := UnfulObj(wd)
	// low + sum_k dlow_k = current.
	cs := treaty.PinGlobal([]lang.ObjID{low}, w.cfg.NSites, folded).Constraints

	// The unfulfilled count: at least one while orders exist (so a
	// Delivery consuming the last order it is aware of violates and
	// synchronizes), and pinned to exactly zero while the queue is empty
	// (so the first insert into an empty queue synchronizes and every
	// site learns the queue is nonempty — "Delivery never sees an empty
	// NEWORDER table unless the table is truly empty", Appendix E).
	cnt := lia.NewTerm()
	cnt.AddVar(logic.Obj(unful), -1)
	for k := 0; k < w.cfg.NSites; k++ {
		cnt.AddVar(logic.Obj(lang.DeltaObj(unful, k)), -1)
	}
	if folded.Get(unful) >= 1 {
		cnt.Const = 1 // count >= 1
		cs = append(cs, lia.Constraint{Term: cnt, Op: lia.LE})
	} else {
		cnt.Const = 0 // count = 0
		cs = append(cs, lia.Constraint{Term: cnt, Op: lia.EQ})
	}
	return treaty.Global{Constraints: cs}, nil
}

// stockModel samples future New Order demand for one stock entry
// (Algorithm 1's workload model). Hot items receive proportionally more
// sampled orders, which is how the optimizer adapts treaties to skew.
type stockModel struct {
	w      *Workload
	obj    lang.ObjID
	deltas []lang.ObjID // the entry's delta object at each site
}

// Model implements workload.Workload.
func (w *Workload) Model(unit int) treaty.WorkloadModel {
	if unit >= w.stockCount {
		return deliveryModel{}
	}
	obj := StockObj(unit)
	return &stockModel{w: w, obj: obj, deltas: lang.DeltaObjs(obj, w.cfg.NSites)}
}

// SampleFuture simulates l New Orders against the stock entry.
func (m *stockModel) SampleFuture(rng *rand.Rand, db lang.Database, l int, visit func(lang.Database)) {
	obj := m.obj
	cur := db.Clone()
	for i := 0; i < l; i++ {
		site := rng.Intn(m.w.cfg.NSites)
		qty := 1 + rng.Int63n(5)
		logical := cur[obj]
		for _, d := range m.deltas {
			logical += cur[d]
		}
		if logical-qty >= 10 {
			cur[m.deltas[site]] -= qty
		} else {
			clear(cur)
			cur[obj] = logical - qty + 91
		}
		visit(cur)
	}
}

// deliveryModel: Delivery always synchronizes (the pin treaty admits no
// slack), so sampling futures is pointless; visit none and let the
// default/optimizer keep the pinned configuration.
type deliveryModel struct{}

func (deliveryModel) SampleFuture(*rand.Rand, lang.Database, int, func(lang.Database)) {}

// pickItem selects a stock entry honoring the hot-item skew: with
// probability H% the order goes to one of the hot items (the first
// hotCount entries), otherwise to the cold range.
func (w *Workload) pickItem(rng *rand.Rand) int {
	if w.cfg.H > 0 && rng.Float64()*100 < w.cfg.H {
		return rng.Intn(w.hotCount)
	}
	if w.stockCount == w.hotCount {
		return rng.Intn(w.stockCount)
	}
	return w.hotCount + rng.Intn(w.stockCount-w.hotCount)
}

// pickDriftItem selects a stock entry for the skewed-warehouse scenario:
// with probability WarehouseAffinity% the order targets the site's current
// home warehouse (home = (site + epoch) mod Warehouses), otherwise it
// falls back to the global hot/cold distribution.
func (w *Workload) pickDriftItem(rng *rand.Rand, site, epoch int) int {
	if rng.Float64()*100 < w.cfg.WarehouseAffinity {
		home := (site + epoch) % w.cfg.Warehouses
		return home*w.cfg.StockPerWarehouse + rng.Intn(w.cfg.StockPerWarehouse)
	}
	return w.pickItem(rng)
}

// Next implements workload.Workload: draw from the transaction mix.
func (w *Workload) Next(rng *rand.Rand, site int) workload.Request {
	drift := w.cfg.WarehouseAffinity > 0
	epoch := 0
	if drift {
		epoch = w.rotor.Tick()
	}
	total := w.cfg.MixNewOrder + w.cfg.MixPayment + w.cfg.MixDelivery
	r := rng.Intn(total)
	switch {
	case r < w.cfg.MixNewOrder:
		var item int
		if drift {
			item = w.pickDriftItem(rng, site, epoch)
		} else {
			item = w.pickItem(rng)
		}
		qty := 1 + rng.Int63n(5)
		return w.NewOrderRequest(item, qty, rng.Intn(w.cfg.Warehouses*w.cfg.DistrictsPerWarehouse))
	case r < w.cfg.MixNewOrder+w.cfg.MixPayment:
		c := rng.Intn(w.cfg.Customers)
		wh := rng.Intn(w.cfg.Warehouses)
		d := wh*w.cfg.DistrictsPerWarehouse + rng.Intn(w.cfg.DistrictsPerWarehouse)
		amount := 1 + rng.Int63n(100)
		return w.PaymentRequest(wh, d, c, amount)
	default:
		wd := rng.Intn(w.cfg.Warehouses * w.cfg.DistrictsPerWarehouse)
		return w.DeliveryRequest(wd)
	}
}

// NewOrderRequest orders qty of a stock entry and records the order in
// the district's unfulfilled queue.
func (w *Workload) NewOrderRequest(item int, qty int64, wd int) workload.Request {
	stockObj := StockObj(item)
	unful := UnfulObj(wd)
	// New Order belongs to both the item's stock unit and the district's
	// delivery unit: its insert must be checked against the queue treaty
	// (inserting into an empty queue violates the count = 0 pin and
	// synchronizes; inserts into a nonempty queue never violate).
	return workload.Request{
		Name:    "NewOrder",
		Args:    []int64{int64(item), qty, int64(wd)},
		Units:   []int{item, w.deliveryUnit(wd)},
		Objects: []lang.ObjID{stockObj, unful},
		Exec: func(v workload.SiteView, _ []int64) error {
			s, err := v.ReadLogical(stockObj)
			if err != nil {
				return err
			}
			if s-qty >= 10 {
				if err := v.WriteLogical(stockObj, s-qty); err != nil {
					return err
				}
			} else {
				if err := v.WriteLogical(stockObj, s-qty+91); err != nil {
					return err
				}
			}
			// Record the order: increment the unfulfilled count. This is a
			// blind increment through the delta encoding; it cannot violate
			// the count >= floor treaty and needs no unit membership.
			n, err := v.ReadLogical(unful)
			if err != nil {
				return err
			}
			return v.WriteLogical(unful, n+1)
		},
		Apply: func(db lang.Database, _ []int64) []int64 {
			s := db.Get(stockObj)
			if s-qty >= 10 {
				db.Set(stockObj, s-qty)
			} else {
				db.Set(stockObj, s-qty+91)
			}
			db.Set(unful, db.Get(unful)+1)
			return nil
		},
	}
}

// PaymentRequest updates the warehouse, district, and customer balances.
// After the delta rewrite these are blind local writes; no treaty unit.
func (w *Workload) PaymentRequest(wh, wd, c int, amount int64) workload.Request {
	wbal, dbal, cbal := WBalObj(wh), DBalObj(wd), CBalObj(c)
	return workload.Request{
		Name: "Payment",
		Args: []int64{int64(wh), int64(wd), int64(c), amount},
		Exec: func(v workload.SiteView, _ []int64) error {
			bw, err := v.ReadLogical(wbal)
			if err != nil {
				return err
			}
			if err := v.WriteLogical(wbal, bw+amount); err != nil {
				return err
			}
			bd, err := v.ReadLogical(dbal)
			if err != nil {
				return err
			}
			if err := v.WriteLogical(dbal, bd+amount); err != nil {
				return err
			}
			bc, err := v.ReadLogical(cbal)
			if err != nil {
				return err
			}
			return v.WriteLogical(cbal, bc-amount)
		},
		Apply: func(db lang.Database, _ []int64) []int64 {
			db.Set(wbal, db.Get(wbal)+amount)
			db.Set(dbal, db.Get(dbal)+amount)
			db.Set(cbal, db.Get(cbal)-amount)
			return nil
		},
	}
}

// DeliveryRequest fulfills the oldest unprocessed order of a district:
// it advances the lowest-order-id cursor, which violates the pin treaty
// and forces synchronization on every productive execution (Appendix E).
func (w *Workload) DeliveryRequest(wd int) workload.Request {
	unful := UnfulObj(wd)
	low := LowObj(wd)
	return workload.Request{
		Name:    "Delivery",
		Args:    []int64{int64(wd)},
		Units:   []int{w.deliveryUnit(wd)},
		Objects: []lang.ObjID{unful, low},
		Exec: func(v workload.SiteView, _ []int64) error {
			n, err := v.ReadLogical(unful)
			if err != nil {
				return err
			}
			if n <= 0 {
				return nil
			}
			l, err := v.ReadLogical(low)
			if err != nil {
				return err
			}
			if err := v.WriteLogical(low, l+1); err != nil {
				return err
			}
			if err := v.WriteLogical(unful, n-1); err != nil {
				return err
			}
			v.Print(l)
			return nil
		},
		Apply: func(db lang.Database, _ []int64) []int64 {
			n := db.Get(unful)
			if n <= 0 {
				return nil
			}
			l := db.Get(low)
			db.Set(low, l+1)
			db.Set(unful, n-1)
			return []int64{l}
		},
	}
}
