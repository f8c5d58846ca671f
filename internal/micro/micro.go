// Package micro implements the Section 6.1 microbenchmark: a replicated
// Stock(itemid, qty) table and a single parameterized order transaction
// (Listing 1) that decrements an item's quantity, refilling it when it
// reaches the floor:
//
//	SELECT qty FROM stock WHERE itemid=@itemid;
//	if (qty > 1) then new_qty = qty - 1 else new_qty = REFILL - 1
//	UPDATE stock SET qty = new_qty WHERE itemid = @itemid;
//
// The transaction is analyzed for real: the L++ source is rewritten for
// replication (Appendix B delta objects), its symbolic table is computed
// (Section 2), and each item's treaty is derived from the matched row
// (Section 4). All 10,000 items share one canonical analysis via renaming
// (the paper's parameterized compression, Section 5.1).
package micro

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/lang"
	"repro/internal/symtab"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// canonObj is the canonical stock object the analysis runs over.
const canonObj = lang.ObjID("q")

// Source returns the L++ source of the order transaction for a given
// REFILL constant.
func Source(refill int64) string {
	return strings.ReplaceAll(`
transaction Order() {
	v := read(q);
	if (v > 1) then
		write(q = v - 1)
	else
		write(q = REFILL - 1)
}`, "REFILL", fmt.Sprintf("%d", refill))
}

// Config parameterizes the workload.
type Config struct {
	// Items is the number of stock items (paper: 10,000).
	Items int
	// Refill is the REFILL constant (paper default: 100).
	Refill int64
	// ItemsPerTxn is the number of distinct items one order touches
	// (Figure 27 varies 1..5).
	ItemsPerTxn int
	// NSites is the replication degree.
	NSites int
	// HotFrac enables the hot-site rotation drift scenario: each site
	// directs this fraction of its orders at a site-specific hot window of
	// HotWindow items, so per-item demand is heavily skewed toward one
	// site at a time. Zero disables drift (the seed's uniform draw).
	HotFrac float64
	// HotWindow is the width of each site's hot window in items (defaults
	// to 1/10th of Items when HotFrac is set).
	HotWindow int
	// RotateEvery advances every hot window by one window width after
	// this many request draws, so the hot site of any given item changes
	// over time and allocations must adapt. Zero never rotates.
	RotateEvery int
}

// Drift returns the configuration with the hot-site rotation scenario on, as
// the drift sweep and homeostasis-serve -drift run it: 90% of each site's
// orders hit its hot window (1/10th of the items by default), and the
// rotation period scales with the table so per-item demand during one hot
// phase spans several negotiation rounds.
func (c Config) Drift() Config {
	c.HotFrac = 0.9
	c.RotateEvery = 20 * c.Items
	return c
}

// Workload is the microbenchmark; it implements workload.Workload.
type Workload struct {
	cfg   Config
	txn   *lang.Transaction // canonical L++ order transaction
	rw    *lang.Transaction // replica-rewritten form (site 0)
	table *symtab.Table     // symbolic table of the rewritten form
	rotor *workload.Rotor   // drift clock (hot-site rotation)
}

// New analyzes the transaction and builds the workload.
func New(cfg Config) (*Workload, error) {
	if cfg.Items <= 0 {
		cfg.Items = 10000
	}
	if cfg.Refill == 0 {
		cfg.Refill = 100
	}
	if cfg.ItemsPerTxn <= 0 {
		cfg.ItemsPerTxn = 1
	}
	if cfg.NSites <= 0 {
		return nil, fmt.Errorf("micro: NSites must be positive")
	}
	txn, err := lang.ParseTransaction(Source(cfg.Refill))
	if err != nil {
		return nil, err
	}
	// Appendix B: rewrite writes into per-site delta objects. The guard of
	// the rewritten transaction mentions the logical value
	// q + sum_j dq_j, which is what the treaty must bound.
	rw := lang.Simplify(lang.ReplicaRewrite(txn, 0, cfg.NSites, map[lang.ObjID]bool{canonObj: true}))
	table, err := symtab.Build(rw)
	if err != nil {
		return nil, err
	}
	if cfg.HotFrac > 0 && cfg.HotWindow <= 0 {
		cfg.HotWindow = cfg.Items / 10
		if cfg.HotWindow < 1 {
			cfg.HotWindow = 1
		}
	}
	return &Workload{cfg: cfg, txn: txn, rw: rw, table: table,
		rotor: workload.NewRotor(cfg.RotateEvery)}, nil
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "micro" }

// ItemObj names the stock object of an item.
func ItemObj(item int) lang.ObjID {
	return lang.ObjID(fmt.Sprintf("stock[%d]", item))
}

// InitialDB implements workload.Workload: every item starts at Refill.
func (w *Workload) InitialDB() lang.Database {
	db := lang.Database{}
	for i := 0; i < w.cfg.Items; i++ {
		db[ItemObj(i)] = w.cfg.Refill
	}
	return db
}

// NumUnits implements workload.Workload: one treaty unit per item.
func (w *Workload) NumUnits() int { return w.cfg.Items }

// UnitObjects implements workload.Workload.
func (w *Workload) UnitObjects(unit int) []lang.ObjID {
	return []lang.ObjID{ItemObj(unit)}
}

// toCanonical maps a folded unit database onto the canonical object
// names.
func (w *Workload) toCanonical(unit int, folded lang.Database) lang.Database {
	db := lang.Database{canonObj: folded.Get(ItemObj(unit))}
	return db
}

// BuildGlobal implements workload.Workload: match the symbolic-table row
// for the current consolidated state, preprocess its guard into linear
// constraints (Appendix C.1), and rename to the item's concrete objects.
func (w *Workload) BuildGlobal(unit int, folded lang.Database) (treaty.Global, error) {
	canonical := w.toCanonical(unit, folded)
	row, err := w.table.MatchRow(canonical, nil)
	if err != nil {
		return treaty.Global{}, err
	}
	g, err := treaty.Preprocess(w.table.Rows[row].Guard, canonical, nil, nil)
	if err != nil {
		return treaty.Global{}, err
	}
	concrete := ItemObj(unit)
	return g.Rename(func(obj lang.ObjID) lang.ObjID {
		if base, site, ok := lang.IsDeltaObj(obj); ok && base == canonObj {
			return lang.DeltaObj(concrete, site)
		}
		if obj == canonObj {
			return concrete
		}
		return obj
	}), nil
}

// model samples future executions for Algorithm 1: L orders spread
// uniformly across sites, each applied with the real transaction
// semantics to per-site delta objects.
type model struct {
	w      *Workload
	obj    lang.ObjID
	deltas []lang.ObjID // the item's delta object at each site
}

// Model implements workload.Workload.
func (w *Workload) Model(unit int) treaty.WorkloadModel {
	obj := ItemObj(unit)
	return &model{w: w, obj: obj, deltas: lang.DeltaObjs(obj, w.cfg.NSites)}
}

// SampleFuture implements treaty.WorkloadModel.
func (m *model) SampleFuture(rng *rand.Rand, db lang.Database, l int, visit func(lang.Database)) {
	obj := m.obj
	cur := db.Clone()
	for i := 0; i < l; i++ {
		site := rng.Intn(m.w.cfg.NSites)
		logical := cur[obj]
		for _, d := range m.deltas {
			logical += cur[d]
		}
		if logical > 1 {
			cur[m.deltas[site]]--
		} else {
			// Refill consolidates at a synchronization point.
			clear(cur)
			cur[obj] = m.w.cfg.Refill - 1
		}
		visit(cur)
	}
}

// Next implements workload.Workload: an order for ItemsPerTxn distinct
// random items — uniform by default; under the hot-site rotation drift
// scenario (HotFrac > 0), HotFrac of each site's draws land in the site's
// current hot window instead.
func (w *Workload) Next(rng *rand.Rand, site int) workload.Request {
	hotStart := -1
	if w.cfg.HotFrac > 0 {
		epoch := w.rotor.Tick()
		hotStart = (site*w.cfg.Items/w.cfg.NSites + epoch*w.cfg.HotWindow) % w.cfg.Items
	}
	items := make([]int, 0, w.cfg.ItemsPerTxn)
	seen := make(map[int]bool, w.cfg.ItemsPerTxn)
	for len(items) < w.cfg.ItemsPerTxn {
		var it int
		if hotStart >= 0 && rng.Float64() < w.cfg.HotFrac {
			it = (hotStart + rng.Intn(w.cfg.HotWindow)) % w.cfg.Items
		} else {
			it = rng.Intn(w.cfg.Items)
		}
		if !seen[it] {
			seen[it] = true
			items = append(items, it)
		}
	}
	return w.MakeRequest(items)
}

// Rebuild implements workload.Workload: the Order of the items its
// arguments name.
func (w *Workload) Rebuild(name string, args []int64) (workload.Request, error) {
	if name != "Order" {
		return workload.Request{}, fmt.Errorf("%w: micro has no %s", workload.ErrUnknownTxn, name)
	}
	items := make([]int, len(args))
	for i, it := range args {
		if it < 0 || it >= int64(w.cfg.Items) {
			return workload.Request{}, fmt.Errorf("micro: Order of item %d, outside [0,%d)", it, w.cfg.Items)
		}
		items[i] = int(it)
	}
	return w.MakeRequest(items), nil
}

// MakeRequest builds the order request for explicit items (exported for
// tests and examples).
func (w *Workload) MakeRequest(items []int) workload.Request {
	args := make([]int64, len(items))
	units := make([]int, len(items))
	objs := make([]lang.ObjID, len(items))
	for i, it := range items {
		args[i] = int64(it)
		units[i] = it
		objs[i] = ItemObj(it)
	}
	refill := w.cfg.Refill
	return workload.Request{
		Name:    "Order",
		Args:    args,
		Units:   units,
		Objects: objs,
		Exec: func(v workload.SiteView, _ []int64) error {
			for i := range items {
				obj := objs[i] // precomputed: ItemObj formats a fresh string per call
				qty, err := v.ReadLogical(obj)
				if err != nil {
					return err
				}
				if qty > 1 {
					if err := v.WriteLogical(obj, qty-1); err != nil {
						return err
					}
				} else {
					if err := v.WriteLogical(obj, refill-1); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}
