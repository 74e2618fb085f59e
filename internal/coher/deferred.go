package coher

import (
	"repro/internal/memsys"
	"repro/internal/sim"
)

// Deferred runs a handler a fixed number of cycles after each Add,
// without building a closure per call: the pending value is a record
// free-listed on the Deferred and scheduled with Kernel.AtArg. A
// controller keeps one per delayed step — an L1 for its hit latency, an
// L2 slice per message kind for its access latency. The record is recycled
// before the handler runs, so a handler that adds again reuses it.
type Deferred[M any] struct {
	k     *sim.Kernel
	delay int64
	run   func(M)
	fire  func(any) // runDeferred[M]; built once, since a generic function value made per call would allocate
	free  *deferred[M]
}

// deferred is one pending value.
type deferred[M any] struct {
	d    *Deferred[M]
	m    M
	next *deferred[M]
}

// NewDeferred returns a Deferred that calls run(m) delay cycles after
// Add(m).
func NewDeferred[M any](k *sim.Kernel, delay int64, run func(M)) Deferred[M] {
	return Deferred[M]{k: k, delay: delay, run: run, fire: runDeferred[M]}
}

// Add schedules run(m) delay cycles from now. It draws one sequence
// number, exactly like Kernel.After.
func (d *Deferred[M]) Add(m M) {
	r := d.free
	if r == nil {
		r = &deferred[M]{d: d}
	} else {
		d.free = r.next
	}
	r.m = m
	d.k.AtArg(d.k.Now()+d.delay, d.fire, r)
}

// runDeferred fires a pending value: recycle the record, then run the
// handler.
func runDeferred[M any](a any) {
	r := a.(*deferred[M])
	d, m := r.d, r.m
	var zero M
	r.m = zero
	r.next = d.free
	d.free = r
	d.run(m)
}

// Load is a core load on its way through the L1 hit latency, or waiting
// out a retry backoff: the word address, the memsys.Protocol continuation
// and, for a retry, the cycle the load first reached the L1 array.
type Load struct {
	Addr  uint32
	Issue int64
	Done  func(val uint32, s memsys.Sample)
}
