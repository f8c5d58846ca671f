// Package topk implements the paper's Section 1 motivating system as a
// protocol workload: item sites receive (key, value) insertions and an
// aggregated top-2 list must stay correct across all replicas
// (Figures 1-2).
//
// The analysis of the aggregator's insert transaction (see
// examples/topk) shows inserts with v <= min(top-2) leave the list
// unchanged: those commit locally with no communication. The top-2 list
// itself is a maximum-structure, which has no Abelian merge function, so
// the Appendix B delta encoding cannot absorb concurrent updates; per the
// paper ("if the data type does not come with a suitable merge function
// ... it is necessary to synchronize on every update"), its treaty pins
// both entries to their current values and every list-changing insert
// triggers the cleanup phase — which is exactly the improved distributed
// top-k algorithm of Figure 2: sites stay silent below the cached
// minimum and broadcast a new treaty whenever the list changes.
package topk

import (
	"fmt"
	"math/rand"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/symtab"
	"repro/internal/treaty"
	"repro/internal/workload"
)

// InsertSource is the aggregator's top-2 update in L++ (analyzed by the
// symbolic-table pipeline; the Go stored procedure below is its compiled
// form, equivalence-tested).
const InsertSource = `
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

// The aggregated list's objects.
const (
	Top1 = lang.ObjID("top1")
	Top2 = lang.ObjID("top2")
)

// Config parameterizes the workload.
type Config struct {
	NSites int
	// MaxValue bounds inserted values (uniform in [1, MaxValue]).
	MaxValue int64
	// Initial list contents.
	InitialTop1, InitialTop2 int64
}

// Workload implements workload.Workload.
type Workload struct {
	cfg   Config
	table *symtab.Table
}

// New analyzes the insert transaction and builds the workload.
func New(cfg Config) (*Workload, error) {
	if cfg.NSites <= 0 {
		return nil, fmt.Errorf("topk: NSites must be positive")
	}
	if cfg.MaxValue == 0 {
		cfg.MaxValue = 1000
	}
	txn, err := lang.ParseTransaction(InsertSource)
	if err != nil {
		return nil, err
	}
	table, err := symtab.Build(txn)
	if err != nil {
		return nil, err
	}
	return &Workload{cfg: cfg, table: table}, nil
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "topk" }

// Table exposes the insert transaction's symbolic table.
func (w *Workload) Table() *symtab.Table { return w.table }

// SilentGuard returns the guard of the row whose residual performs no
// writes — the "v <= min" region that needs no communication.
func (w *Workload) SilentGuard() (logic.Formula, error) {
	for _, row := range w.table.Rows {
		if _, writes := lang.Footprint(row.Residual, nil); len(writes) == 0 {
			return row.Guard, nil
		}
	}
	return nil, fmt.Errorf("topk: no silent row in the symbolic table")
}

// InitialDB implements workload.Workload.
func (w *Workload) InitialDB() lang.Database {
	return lang.Database{Top1: w.cfg.InitialTop1, Top2: w.cfg.InitialTop2}
}

// NumUnits implements workload.Workload: one unit governing the list.
func (w *Workload) NumUnits() int { return 1 }

// UnitObjects implements workload.Workload.
func (w *Workload) UnitObjects(int) []lang.ObjID { return []lang.ObjID{Top1, Top2} }

// BuildGlobal pins both list entries: a maximum-structure has no merge
// function, so correctness requires synchronizing on every change
// (Appendix B). Inserts below the minimum write nothing and commit
// locally under the pins.
func (w *Workload) BuildGlobal(_ int, folded lang.Database) (treaty.Global, error) {
	return treaty.PinGlobal([]lang.ObjID{Top1, Top2}, w.cfg.NSites, folded), nil
}

// Model implements workload.Workload: pin treaties admit no slack, so
// future sampling has nothing to optimize.
func (w *Workload) Model(int) treaty.WorkloadModel { return nopModel{} }

type nopModel struct{}

func (nopModel) SampleFuture(*rand.Rand, lang.Database, int, func(lang.Database)) {}

// Next implements workload.Workload: insert a uniform random value.
func (w *Workload) Next(rng *rand.Rand, _ int) workload.Request {
	return w.InsertRequest(1 + rng.Int63n(w.cfg.MaxValue))
}

// InsertRequest builds the insert for a specific value (the compiled form
// of InsertSource; equivalence with the L++ source is tested).
func (w *Workload) InsertRequest(v int64) workload.Request {
	apply := func(db lang.Database, _ []int64) []int64 {
		t1, t2 := db.Get(Top1), db.Get(Top2)
		switch {
		case v > t1:
			db.Set(Top1, v)
			db.Set(Top2, t1)
		case v > t2:
			db.Set(Top2, v)
		}
		return nil
	}
	return workload.Request{
		Name:    "Insert",
		Args:    []int64{v},
		Units:   []int{0},
		Objects: []lang.ObjID{Top1, Top2},
		Exec: func(view workload.SiteView, _ []int64) error {
			t1, err := view.ReadLogical(Top1)
			if err != nil {
				return err
			}
			t2, err := view.ReadLogical(Top2)
			if err != nil {
				return err
			}
			if v <= t2 {
				return nil // below the cached minimum: stay silent
			}
			if v > t1 {
				if err := view.WriteLogical(Top1, v); err != nil {
					return err
				}
				return view.WriteLogical(Top2, t1)
			}
			return view.WriteLogical(Top2, v)
		},
		Apply: apply,
	}
}
