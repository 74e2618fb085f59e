// Package sim provides a deterministic discrete-event simulation kernel.
//
// All simulator components (caches, network links, memory controllers,
// cores) schedule closures on a single Kernel. Events with equal timestamps
// fire in scheduling order, which makes every simulation run fully
// deterministic for a given input.
//
// The event queue has two tiers. Events due less than wheelSpan cycles
// ahead (nearly all of them) go into a timing wheel: one FIFO bucket per
// cycle, kept as an intrusive list through the payload slab, with an
// occupancy bitmap, so push and pop are O(1). Events due further ahead go
// into a hand-rolled 4-ary min-heap of pointer-free (cycle, seq, slot)
// keys, and move into their bucket, in heap order, as soon as the clock
// comes within a span of them. Each event's callback lives in a free-listed
// payload slab at slot, written once when the event is pushed and cleared
// once when it fires. Components on allocation-free hot paths schedule with
// AtArg, which carries a pointer-sized argument instead of forcing a
// closure per event.
//
// A component that needs to run every cycle (a cycle-level router's network
// tick) registers itself once with SetTicker and re-arms with TickNext. The
// recurring tick lives in a dedicated slot beside the queue, so the most
// frequent event in the simulator costs O(1) integer updates per cycle
// instead of a queue push+pop, while ordering against queued events exactly
// as an After(1, tick) chain would (see TickNext).
package sim

import (
	"math/bits"
	"sync"
)

// wheelSpan is the near tier's reach: an event due fewer than wheelSpan
// cycles ahead goes into the timing wheel, any later one into the far heap.
// A power of two, so a cycle's bucket is its low bits.
const wheelSpan = 1024

// key orders one pending far-tier event by (at, seq); seq is unique, so slot
// never decides the order. slot indexes the event's payload.
type key struct {
	at   int64
	seq  uint64
	slot int32
}

// payload is one pending event: fn receives arg, so hot paths can reuse a
// package-level function value plus a free-listed argument instead of
// allocating a closure. seq is the event's sequence number and next its
// successor in its wheel bucket.
type payload struct {
	fn   func(any)
	arg  any
	seq  uint64
	next int32
}

// callFunc runs an At or After callback, which rides in the event's arg:
// an interface holds a func value without allocating.
func callFunc(fn any) { fn.(func())() }

// Kernel is a discrete-event scheduler. The zero value is ready to use.
type Kernel struct {
	// Near tier: bucket at%wheelSpan lists the events of cycle at, oldest
	// first, for every at in [now, now+wheelSpan); occ marks the non-empty
	// buckets (head and tail are meaningless while a bucket's bit is clear)
	// and near counts their events.
	head, tail [wheelSpan]int32
	occ        [wheelSpan / 64]uint64
	near       int

	pq      []key     // far tier: 4-ary min-heap by (at, seq), every at >= now+wheelSpan
	slab    []payload // events, indexed by slot
	free    []int32   // slab slots not held by a pending event
	now     int64
	seq     uint64
	steps   uint64
	clamped uint64

	// The dedicated recurring-tick slot (SetTicker / TickNext). tickSeq
	// orders the slot against queued events with the same timestamp
	// through the shared seq counter, so slot scheduling is
	// indistinguishable from an equivalent queue schedule.
	tickFn    func()
	tickAt    int64
	tickSeq   uint64
	tickArmed bool
}

// recycled holds the kernels of ended runs, for their slab, free list and
// far heap.
var recycled sync.Pool

// NewKernel returns an empty kernel, reusing a recycled kernel's arrays
// when one is free. It is the zero Kernel in every observable way.
func NewKernel() *Kernel {
	k, _ := recycled.Get().(*Kernel)
	if k == nil {
		return &Kernel{}
	}
	*k = Kernel{slab: k.slab[:0], free: k.free[:0], pq: k.pq[:0]}
	return k
}

// Recycle drops every pending event and hands the kernel's arrays to the
// next NewKernel. The caller must not use the kernel again.
func (k *Kernel) Recycle() {
	// The callbacks hold the ended run's components.
	clear(k.slab)
	k.tickFn = nil
	recycled.Put(k)
}

// Now returns the current simulated cycle.
func (k *Kernel) Now() int64 { return k.now }

// Steps returns the number of events executed so far, recurring-slot ticks
// included.
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of events waiting to run, counting an armed
// recurring tick.
func (k *Kernel) Pending() int {
	n := k.near + len(k.pq)
	if k.tickArmed {
		n++
	}
	return n
}

// At schedules fn to run at absolute cycle t. Scheduling in the past is an
// error in component logic; the kernel clamps it to "now" so that a bug
// cannot move time backwards, and counts the clamp so the error cannot
// hide — Clamped is surfaced in the driver's debug stats and asserted
// zero by the regression suite.
func (k *Kernel) At(t int64, fn func()) { k.AtArg(t, callFunc, fn) }

// AtArg schedules fn(arg) at absolute cycle t. It is the allocation-free
// form of At: fn is typically a package-level function value and arg a
// pointer from a caller-owned free list, so scheduling builds no closure.
// Past timestamps clamp and count exactly as in At.
func (k *Kernel) AtArg(t int64, fn func(any), arg any) {
	if t < k.now {
		t = k.now
		k.clamped++
	}
	k.push(t, fn, arg)
}

// Clamped returns how many events were scheduled in the past and clamped
// to "now". Any nonzero value marks a component-logic bug.
func (k *Kernel) Clamped() uint64 { return k.clamped }

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d int64, fn func()) { k.At(k.now+d, fn) }

// SetTicker registers fn as the kernel's dedicated recurring-tick
// callback. Only one component per kernel may own the slot (in this
// simulator, a cycle-level router's network tick); registering twice
// panics. The ticker is armed with TickNext and fires like any other
// event, interleaved with queued events by (cycle, sequence) order.
func (k *Kernel) SetTicker(fn func()) {
	if k.tickFn != nil {
		panic("sim: SetTicker called twice; the kernel has one recurring-tick slot")
	}
	k.tickFn = fn
}

// TickArmed reports whether the recurring tick is scheduled.
func (k *Kernel) TickArmed() bool { return k.tickArmed }

// TickNext arms the recurring tick for the next cycle. It is equivalent to
// After(1, ticker) — it consumes one sequence number, so equal-timestamp
// ordering against other events is identical — but costs O(1) with no
// queue traffic and no allocation.
func (k *Kernel) TickNext() {
	if k.tickFn == nil {
		panic("sim: TickNext without SetTicker")
	}
	if k.tickArmed {
		panic("sim: recurring tick armed twice")
	}
	k.tickAt = k.now + 1
	k.tickSeq = k.seq
	k.seq++
	k.tickArmed = true
}

// Step runs the earliest pending event and returns false if none remain.
func (k *Kernel) Step() bool {
	at, seq, ok := k.earliest()
	if k.tickArmed && (!ok || k.tickAt < at || k.tickAt == at && k.tickSeq < seq) {
		k.tickArmed = false
		k.advance(k.tickAt)
		k.steps++
		k.tickFn()
		return true
	}
	if !ok {
		return false
	}
	if at != k.now {
		k.advance(at) // brings the far root into its bucket if the wheel was empty
	}
	b := uint(at) % wheelSpan
	slot := k.head[b]
	if slot == k.tail[b] {
		k.occ[b/64] &^= 1 << (b % 64)
	} else {
		k.head[b] = k.slab[slot].next
	}
	k.near--
	// The slot is cleared, releasing the callback's references, and freed
	// before the callback runs, so the callback's own schedules reuse it.
	// Field-wise stores keep the garbage collector's write barrier off its
	// bulk path.
	e := &k.slab[slot]
	fn, arg := e.fn, e.arg
	e.fn, e.arg = nil, nil
	k.free = append(k.free, slot)
	k.steps++
	fn(arg)
	return true
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunLimit executes at most n events; it returns the number executed. It is
// used by tests and the core driver as a watchdog against livelock;
// recurring-slot ticks count like any other event.
func (k *Kernel) RunLimit(n uint64) uint64 {
	var i uint64
	for ; i < n; i++ {
		if !k.Step() {
			break
		}
	}
	return i
}

// push stores an event in a free slab slot with the next sequence number
// and queues it at cycle at: in at's wheel bucket when at is less than a
// span ahead, in the far heap otherwise.
func (k *Kernel) push(at int64, fn func(any), arg any) {
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		slot = int32(len(k.slab))
		k.slab = append(k.slab, payload{})
	}
	e := &k.slab[slot]
	e.fn, e.arg, e.seq = fn, arg, k.seq
	k.seq++
	if at-k.now < wheelSpan {
		k.link(at, slot)
	} else {
		k.heapPush(key{at: at, seq: e.seq, slot: slot})
	}
}

// link appends slot to the tail of cycle at's bucket.
func (k *Kernel) link(at int64, slot int32) {
	b := uint(at) % wheelSpan
	if bit := uint64(1) << (b % 64); k.occ[b/64]&bit == 0 {
		k.occ[b/64] |= bit
		k.head[b] = slot
	} else {
		k.slab[k.tail[b]].next = slot
	}
	k.tail[b] = slot
	k.near++
}

// earliest returns the cycle and sequence number of the first queued event
// (the recurring tick aside). Every wheel event precedes every far one, so
// the far heap is consulted only when the wheel is empty; in the wheel, the
// first occupied bucket at or after now's holds it.
func (k *Kernel) earliest() (int64, uint64, bool) {
	if k.near == 0 {
		if len(k.pq) == 0 {
			return 0, 0, false
		}
		return k.pq[0].at, k.pq[0].seq, true
	}
	start := uint(k.now) % wheelSpan
	w := start / 64
	m := k.occ[w] &^ (uint64(1)<<(start%64) - 1)
	for m == 0 { // near > 0, so some bucket is set; at worst we wrap to w
		w = (w + 1) % uint(len(k.occ))
		m = k.occ[w]
	}
	b := w*64 + uint(bits.TrailingZeros64(m))
	return k.now + int64((b-start)%wheelSpan), k.slab[k.head[b]].seq, true
}

// advance moves the clock to t and, before anything can be scheduled at the
// new time, moves every far event now less than a span ahead into its
// bucket, in (at, seq) order.
//
// This keeps each bucket in seq order, which is the whole ordering
// argument. A far event for cycle c was pushed while now <= c-wheelSpan; a
// direct push into c's bucket needs now > c-wheelSpan, so it comes later
// and has a larger seq. advance runs on every clock move (a wheel event, a
// far root, the recurring tick), so the far events for c reach their
// bucket the moment now passes c-wheelSpan, ahead of every direct push.
func (k *Kernel) advance(t int64) {
	k.now = t
	for len(k.pq) > 0 && k.pq[0].at-t < wheelSpan {
		k.migrate()
	}
}

// migrate moves the far heap's root into its wheel bucket. It is advance's
// loop body, kept out of line so that advance inlines into Step.
func (k *Kernel) migrate() {
	e := k.heapPop()
	k.link(e.at, e.slot)
}

// The far tier: a 4-ary min-heap ordered by (at, seq) on a flat slice of
// keys. Four children per node halve the tree depth of the binary layout,
// and sift loops compare siblings within one or two cache lines — the
// classic d-ary trade of slightly more comparisons for far fewer cache
// misses. Both sifts hold the moving key aside and shift parents or
// children into the hole, one store per level. The keys hold no pointers,
// so the sifts never trip the garbage collector's write barrier.

const heapArity = 4

func keyLess(a, b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts e into the far heap.
func (k *Kernel) heapPush(e key) {
	k.pq = append(k.pq, key{})
	i := len(k.pq) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !keyLess(&e, &k.pq[parent]) {
			break
		}
		k.pq[i] = k.pq[parent]
		i = parent
	}
	k.pq[i] = e
}

// heapPop removes and returns the far heap's earliest key.
func (k *Kernel) heapPop() key {
	root := k.pq[0]
	n := len(k.pq) - 1
	last := k.pq[n]
	k.pq = k.pq[:n]
	if n > 0 {
		i := 0
		for {
			first := heapArity*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + heapArity
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if keyLess(&k.pq[c], &k.pq[min]) {
					min = c
				}
			}
			if !keyLess(&k.pq[min], &last) {
				break
			}
			k.pq[i] = k.pq[min]
			i = min
		}
		k.pq[i] = last
	}
	return root
}
