// Package sim provides a deterministic discrete-event simulation kernel.
//
// All simulator components (caches, network links, memory controllers,
// cores) schedule closures on a single Kernel. Events with equal timestamps
// fire in scheduling order, which makes every simulation run fully
// deterministic for a given input.
//
// The event queue is a hand-rolled 4-ary min-heap of pointer-free
// (cycle, seq, slot) keys: no container/heap interface boxing, sift paths
// move 24-byte keys into a hole instead of swapping, and because the keys
// hold no pointers the sifts never trip the garbage collector's write
// barrier. Each key's callback lives in a free-listed payload slab at
// slot, written once when the event is pushed and cleared once when it
// fires. Components on allocation-free hot paths schedule with AtArg,
// which carries a pointer-sized argument instead of forcing a closure per
// event.
//
// A component that needs to run every cycle (the vc router's network tick)
// registers itself once with SetTicker and re-arms with TickNext or
// TickSkipTo. The recurring tick lives in a dedicated slot beside the
// heap, so the most frequent event in the simulator costs O(1) integer
// updates per cycle instead of a heap push+pop — and TickSkipTo can elide
// provably idle cycles entirely while preserving the exact equal-timestamp
// ordering of the per-cycle schedule (see the seq accounting below).
package sim

// key orders one pending heap event by (at, seq); seq is unique, so slot
// never decides the order. slot indexes the event's payload.
type key struct {
	at   int64
	seq  uint64
	slot int32
}

// payload is the callback of a pending event. Exactly one of fn and fna is
// set; fna receives arg, so hot paths can reuse a package-level function
// value plus a free-listed argument instead of allocating a closure.
type payload struct {
	fn  func()
	fna func(any)
	arg any
}

// Kernel is a discrete-event scheduler. The zero value is ready to use.
type Kernel struct {
	pq      []key     // 4-ary min-heap by (at, seq)
	slab    []payload // callbacks, indexed by key.slot
	free    []int32   // slab slots not held by a pending event
	now     int64
	seq     uint64
	steps   uint64
	clamped uint64

	// The dedicated recurring-tick slot (SetTicker / TickNext /
	// TickSkipTo). tickSeq orders the slot against heap events with the
	// same timestamp through the shared seq counter, so slot scheduling is
	// indistinguishable from an equivalent heap schedule.
	tickFn    func()
	tickAt    int64
	tickSeq   uint64
	tickArmed bool
}

// Now returns the current simulated cycle.
func (k *Kernel) Now() int64 { return k.now }

// Steps returns the number of events executed so far (recurring-slot ticks
// included; cycles elided by TickSkipTo are not, since nothing ran).
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of events waiting to run, counting an armed
// recurring tick.
func (k *Kernel) Pending() int {
	n := len(k.pq)
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
func (k *Kernel) At(t int64, fn func()) {
	if t < k.now {
		t = k.now
		k.clamped++
	}
	k.push(t, payload{fn: fn})
}

// AtArg schedules fn(arg) at absolute cycle t. It is the allocation-free
// form of At: fn is typically a package-level function value and arg a
// pointer from a caller-owned free list, so scheduling builds no closure.
// Past timestamps clamp and count exactly as in At.
func (k *Kernel) AtArg(t int64, fn func(any), arg any) {
	if t < k.now {
		t = k.now
		k.clamped++
	}
	k.push(t, payload{fna: fn, arg: arg})
}

// Clamped returns how many events were scheduled in the past and clamped
// to "now". Any nonzero value marks a component-logic bug.
func (k *Kernel) Clamped() uint64 { return k.clamped }

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d int64, fn func()) { k.At(k.now+d, fn) }

// SetTicker registers fn as the kernel's dedicated recurring-tick
// callback. Only one component per kernel may own the slot (in this
// simulator, the vc router's network tick); registering twice panics.
// The ticker is armed with TickNext or TickSkipTo and fires like any
// other event, interleaved with heap events by (cycle, sequence) order.
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
// heap traffic and no allocation.
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

// TickSkipTo arms the recurring tick for cycle t, skipping the cycles in
// between. The caller asserts that a tick on any elided cycle would be a
// no-op (the vc router proves this from its arrival/credit horizon); the
// kernel additionally clamps t to the next pending heap event, since that
// event may invalidate the caller's proof (e.g. by injecting a packet).
//
// Ordering is exact, not approximate: a per-cycle ticker that re-arms with
// After(1, tick) consumes one sequence number per cycle, and events
// scheduled at a cycle always order against that cycle's tick through
// those numbers. TickSkipTo therefore consumes one sequence number per
// elided cycle and gives the armed tick the sequence number its
// chain-scheduled ancestor would have had, so every equal-timestamp
// comparison resolves exactly as under per-cycle re-arming.
func (k *Kernel) TickSkipTo(t int64) {
	if k.tickFn == nil {
		panic("sim: TickSkipTo without SetTicker")
	}
	if k.tickArmed {
		panic("sim: recurring tick armed twice")
	}
	u := t
	if len(k.pq) > 0 && k.pq[0].at < u {
		u = k.pq[0].at // a pending event may change what the tick can do
	}
	if u <= k.now {
		if t <= k.now {
			k.clamped++ // skipping to the past is a caller bug, like At
		}
		u = k.now + 1
	}
	d := uint64(u - k.now)    // cycles the chain would have re-armed across
	k.tickSeq = k.seq + d - 1 // the seq the arm at cycle u-1 would draw
	k.seq += d
	k.tickAt = u
	k.tickArmed = true
}

// NextEventAt returns the cycle of the earliest pending event (heap or
// armed recurring tick), so drivers can see the next wakeup. ok is false
// when nothing is scheduled.
func (k *Kernel) NextEventAt() (int64, bool) {
	if k.tickArmed {
		if len(k.pq) == 0 || !k.heapBeforeTick() {
			return k.tickAt, true
		}
		return k.pq[0].at, true
	}
	if len(k.pq) == 0 {
		return 0, false
	}
	return k.pq[0].at, true
}

// heapBeforeTick reports whether the heap root fires before the armed
// tick; both must exist.
func (k *Kernel) heapBeforeTick() bool {
	r := &k.pq[0]
	if r.at != k.tickAt {
		return r.at < k.tickAt
	}
	return r.seq < k.tickSeq
}

// Step runs the earliest pending event and returns false if none remain.
func (k *Kernel) Step() bool {
	if k.tickArmed && (len(k.pq) == 0 || !k.heapBeforeTick()) {
		k.now = k.tickAt
		k.tickArmed = false
		k.steps++
		k.tickFn()
		return true
	}
	if len(k.pq) == 0 {
		return false
	}
	at, p := k.pop()
	k.now = at
	k.steps++
	if p.fn != nil {
		p.fn()
	} else {
		p.fna(p.arg)
	}
	return true
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t. An armed recurring tick beyond t stays armed.
func (k *Kernel) RunUntil(t int64) {
	for {
		at, ok := k.NextEventAt()
		if !ok || at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
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

// The event queue: a 4-ary min-heap ordered by (at, seq) on a flat slice
// of keys. Four children per node halve the tree depth of the binary
// layout, and sift loops compare siblings within one or two cache lines —
// the classic d-ary trade of slightly more comparisons for far fewer cache
// misses. Both sifts hold the moving key aside and shift parents or
// children into the hole, one store per level.

const heapArity = 4

func keyLess(a, b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push stores p in a free slab slot and inserts its key at cycle at with
// the next sequence number.
func (k *Kernel) push(at int64, p payload) {
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
		k.slab[slot] = p
	} else {
		slot = int32(len(k.slab))
		k.slab = append(k.slab, p)
	}
	e := key{at: at, seq: k.seq, slot: slot}
	k.seq++
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

// pop removes the earliest event and returns its cycle and callback. The
// slab slot is cleared, releasing the callback's references, and freed
// before the callback runs, so the callback's own schedules reuse it.
func (k *Kernel) pop() (int64, payload) {
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
	p := k.slab[root.slot]
	k.slab[root.slot] = payload{}
	k.free = append(k.free, root.slot)
	return root.at, p
}
