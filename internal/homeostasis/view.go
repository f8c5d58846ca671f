package homeostasis

import (
	"repro/internal/lang"
	"repro/internal/store"
)

// deltaView is the homeostasis-mode SiteView: logical reads return
// base + own delta (the Appendix B snapshot semantics — remote deltas are
// not visible and read as their last-synchronized value, zero), and
// logical writes update only the site's own delta object, so Assumption
// 3.1 (all writes are local) holds.
type deltaView struct {
	tx     *store.Txn
	sys    *System // delta-name cache access (see System.deltaName)
	site   int
	nSites int
	log    []int64
}

func (v *deltaView) ReadLogical(obj lang.ObjID) (int64, error) {
	base, err := v.tx.Read(obj)
	if err != nil {
		return 0, err
	}
	// Remote deltas were zeroed at the last synchronization; the local
	// store's copies of them are authoritative snapshots (zero). Only the
	// site's own delta can be nonzero locally.
	d, err := v.tx.Read(v.sys.deltaName(obj, v.site))
	if err != nil {
		return 0, err
	}
	return base + d, nil
}

func (v *deltaView) WriteLogical(obj lang.ObjID, val int64) error {
	// write(dx_site = v - x - sum_{j != site} dx_j); remote deltas are
	// zero in the local snapshot but are read through the store for
	// generality.
	base, err := v.tx.Read(obj)
	if err != nil {
		return err
	}
	rest := int64(0)
	for j := 0; j < v.nSites; j++ {
		if j == v.site {
			continue
		}
		d, err := v.tx.Read(v.sys.deltaName(obj, j))
		if err != nil {
			return err
		}
		rest += d
	}
	return v.tx.Write(v.sys.deltaName(obj, v.site), val-base-rest)
}

func (v *deltaView) Print(x int64) { v.log = append(v.log, x) }

// directView is the 2PC/local-mode SiteView: objects are accessed
// directly with no delta encoding. It records the transaction's write set
// so 2PC can replicate the coordinator's writes by value (replicas must
// install the values the coordinator computed, not recompute them from
// possibly different local states).
type directView struct {
	tx  *store.Txn
	log []int64

	writeOrder []lang.ObjID
	writes     map[lang.ObjID]int64
}

func (v *directView) ReadLogical(obj lang.ObjID) (int64, error) {
	return v.tx.Read(obj)
}

func (v *directView) WriteLogical(obj lang.ObjID, val int64) error {
	if err := v.tx.Write(obj, val); err != nil {
		return err
	}
	if v.writes == nil {
		v.writes = make(map[lang.ObjID]int64)
	}
	if _, seen := v.writes[obj]; !seen {
		v.writeOrder = append(v.writeOrder, obj)
	}
	v.writes[obj] = val
	return nil
}

func (v *directView) Print(x int64) { v.log = append(v.log, x) }

// writeSet returns the final written values in first-write order.
func (v *directView) writeSet() []store.ObjValue {
	out := make([]store.ObjValue, 0, len(v.writeOrder))
	for _, obj := range v.writeOrder {
		out = append(out, store.ObjValue{Obj: obj, Value: v.writes[obj]})
	}
	return out
}
