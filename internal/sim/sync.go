package sim

import "repro/internal/rt"

// Resource is a counting semaphore in virtual time, used to model a
// site's CPU capacity: transactions acquire a slot for their service time,
// so throughput saturates when all slots are busy (the Figure 17 client
// plateau).
type Resource struct {
	e       *Engine
	cap     int
	inUse   int
	waiters []rt.Proc
}

// NewResource creates a resource with the given capacity.
func NewResource(e *Engine, capacity int) *Resource {
	return &Resource{e: e, cap: capacity}
}

// Acquire blocks until a slot is free and takes it.
func (r *Resource) Acquire(p rt.Proc) {
	for r.inUse >= r.cap {
		r.waiters = append(r.waiters, p)
		p.PrepPark()
		p.Park()
	}
	r.inUse++
}

// Release frees a slot and wakes one waiter.
func (r *Resource) Release() {
	r.inUse--
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		token := w.Token()
		r.e.At(r.e.now, func() { w.WakeIf(token) })
	}
}

// InUse returns the number of held slots.
func (r *Resource) InUse() int { return r.inUse }
