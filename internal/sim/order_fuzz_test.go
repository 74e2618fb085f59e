package sim

import (
	"slices"
	"sort"
	"testing"
)

// refKernel is the reference FuzzKernelOrder checks Kernel against: the
// same scheduling contract (clamping, the recurring-tick slot and its seq
// accounting, RunUntil's clock jump) over one slice kept sorted by
// (at, seq). It is slow and plainly in order.
type refKernel struct {
	q              []refEvent
	now            int64
	seq            uint64
	steps, clamped uint64
	tickFn         func()
	tickAt         int64
	tickSeq        uint64
	tickArmed      bool
}

type refEvent struct {
	at  int64
	seq uint64
	fn  func()
}

func (r *refKernel) At(t int64, fn func()) {
	if t < r.now {
		t = r.now
		r.clamped++
	}
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > t })
	r.q = slices.Insert(r.q, i, refEvent{t, r.seq, fn})
	r.seq++
}

func (r *refKernel) AtArg(t int64, fn func(any), arg any) { r.At(t, func() { fn(arg) }) }
func (r *refKernel) After(d int64, fn func())             { r.At(r.now+d, fn) }
func (r *refKernel) SetTicker(fn func())                  { r.tickFn = fn }
func (r *refKernel) TickNext()                            { r.arm(r.now + 1) }

func (r *refKernel) TickSkipTo(t int64) {
	u := t
	if len(r.q) > 0 && r.q[0].at < u {
		u = r.q[0].at
	}
	if u <= r.now {
		if t <= r.now {
			r.clamped++
		}
		u = r.now + 1
	}
	r.arm(u)
}

// arm arms the tick for cycle u as a per-cycle After(1) chain would have:
// one sequence number per cycle crossed, the tick holding the last.
func (r *refKernel) arm(u int64) {
	d := uint64(u - r.now)
	r.tickSeq = r.seq + d - 1
	r.seq += d
	r.tickAt = u
	r.tickArmed = true
}

// tickFirst reports whether the armed tick precedes every queued event.
func (r *refKernel) tickFirst() bool {
	if !r.tickArmed {
		return false
	}
	if len(r.q) == 0 {
		return true
	}
	e := r.q[0]
	return r.tickAt < e.at || r.tickAt == e.at && r.tickSeq < e.seq
}

func (r *refKernel) Step() bool {
	switch {
	case r.tickFirst():
		r.now, r.tickArmed = r.tickAt, false
		r.steps++
		r.tickFn()
	case len(r.q) > 0:
		e := r.q[0]
		r.q = r.q[1:]
		r.now = e.at
		r.steps++
		e.fn()
	default:
		return false
	}
	return true
}

func (r *refKernel) NextEventAt() (int64, bool) {
	if r.tickFirst() {
		return r.tickAt, true
	}
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}

func (r *refKernel) RunUntil(t int64) {
	for at, ok := r.NextEventAt(); ok && at <= t; at, ok = r.NextEventAt() {
		r.Step()
	}
	r.now = max(r.now, t)
}

func (r *refKernel) RunLimit(n uint64) uint64 {
	var i uint64
	for i < n && r.Step() {
		i++
	}
	return i
}

func (r *refKernel) Run()            { r.RunLimit(^uint64(0)) }
func (r *refKernel) Now() int64      { return r.now }
func (r *refKernel) Steps() uint64   { return r.steps }
func (r *refKernel) Clamped() uint64 { return r.clamped }
func (r *refKernel) TickArmed() bool { return r.tickArmed }

func (r *refKernel) Pending() int {
	if r.tickArmed {
		return len(r.q) + 1
	}
	return len(r.q)
}

// scheduler is the surface FuzzKernelOrder drives, identically, on Kernel
// and on refKernel.
type scheduler interface {
	At(int64, func())
	AtArg(int64, func(any), any)
	After(int64, func())
	SetTicker(func())
	TickNext()
	TickSkipTo(int64)
	Step() bool
	Run()
	RunUntil(int64)
	RunLimit(uint64) uint64
	NextEventAt() (int64, bool)
	Now() int64
	Steps() uint64
	Pending() int
	Clamped() uint64
	TickArmed() bool
}

// orderDelays are the offsets FuzzKernelOrder schedules at: the same and
// the next few cycles, both sides of the wheel span and two spans (the
// far tier and its migration), the DeNovo write-combining timeout, and the
// past, which must clamp.
var orderDelays = [...]int64{0, 1, 2, 3, wheelSpan - 1, wheelSpan, wheelSpan + 1, 2 * wheelSpan, 10_000, -1, -7}

func orderDelay(b uint64) int64 { return orderDelays[b%uint64(len(orderDelays))] }

// Budgets that keep one fuzz input finite: events spawn children only while
// fewer than maxOrderEvents exist, and the ticker re-arms itself at most
// maxOrderTicks times.
const (
	maxOrderEvents = 400
	maxOrderTicks  = 200
)

// orderWorld is one side of the differential run: a scheduler, the ids of
// the events it fired since the last comparison (the tick logs -1), and
// the counters that make every callback's choices a pure function of the
// seed and the event's id.
type orderWorld struct {
	k      scheduler
	seed   uint64
	log    []int
	nextID int
	ticks  uint64
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// schedule queues a new event by At, AtArg or After (kind), delay d ahead.
func (w *orderWorld) schedule(kind uint64, d int64) {
	id := w.nextID
	w.nextID++
	switch kind % 3 {
	case 0:
		w.k.At(w.k.Now()+d, func() { w.fire(id) })
	case 1:
		w.k.AtArg(w.k.Now()+d, w.fireArg, id)
	default:
		w.k.After(d, func() { w.fire(id) })
	}
}

func (w *orderWorld) fireArg(a any) { w.fire(a.(int)) }

// fire logs id and schedules up to two children from inside the callback.
func (w *orderWorld) fire(id int) {
	w.log = append(w.log, id)
	h := splitmix(w.seed ^ uint64(id)<<20)
	for n := h % 3; n > 0 && w.nextID < maxOrderEvents; n-- {
		h = splitmix(h)
		w.schedule(h>>8, orderDelay(h>>16))
	}
}

// tick logs the tick and re-arms it with TickNext, with TickSkipTo to any
// orderDelays offset (past the span too, and whatever the queue holds), or
// not at all.
func (w *orderWorld) tick() {
	w.log = append(w.log, -1)
	w.ticks++
	if w.ticks >= maxOrderTicks {
		return
	}
	switch h := splitmix(w.seed ^ w.ticks<<40); h % 4 {
	case 0:
	case 1:
		w.k.TickNext()
	default:
		w.k.TickSkipTo(w.k.Now() + orderDelay(h>>8))
	}
}

// apply runs one fuzzed call from outside any callback.
func (w *orderWorld) apply(op, arg byte) {
	switch op % 8 {
	case 0, 1, 2:
		w.schedule(uint64(op), orderDelay(uint64(arg)))
	case 3:
		if !w.k.TickArmed() {
			w.k.TickNext()
		}
	case 4:
		if !w.k.TickArmed() {
			w.k.TickSkipTo(w.k.Now() + orderDelay(uint64(arg)))
		}
	case 5:
		w.k.Step()
	case 6:
		w.k.RunUntil(w.k.Now() + orderDelay(uint64(arg)))
	case 7:
		w.k.RunLimit(uint64(arg % 16))
	}
}

// orderState is everything a scheduler reports.
type orderState struct {
	now       int64
	steps     uint64
	pending   int
	next      int64
	ok        bool
	clamped   uint64
	tickArmed bool
}

func readState(k scheduler) orderState {
	next, ok := k.NextEventAt()
	return orderState{now: k.Now(), steps: k.Steps(), pending: k.Pending(), next: next, ok: ok,
		clamped: k.Clamped(), tickArmed: k.TickArmed()}
}

// sameState fails unless both sides fired the same events since the last
// comparison and agree on everything the kernel reports. call numbers the
// outside call; -1 is the final drain.
func sameState(t *testing.T, call int, got, want *orderWorld) {
	t.Helper()
	if !slices.Equal(got.log, want.log) {
		t.Fatalf("call %d: fired %v, reference fired %v", call, got.log, want.log)
	}
	got.log, want.log = got.log[:0], want.log[:0]
	if g, w := readState(got.k), readState(want.k); g != w {
		t.Fatalf("call %d: kernel %+v, reference %+v", call, g, w)
	}
}

// FuzzKernelOrder is the differential check of the two-tier event queue:
// a fuzzed program of outside calls (At, AtArg and After at near, far and
// past offsets; arming the recurring tick; Step, RunUntil and RunLimit)
// runs on Kernel and on refKernel, with every event scheduling children
// from inside its callback and the ticker re-arming itself with TickNext
// or TickSkipTo. After every call both must have fired the same events in
// the same order and agree on Now, Steps, Pending, NextEventAt, Clamped
// and TickArmed. The outside pushes matter: a push after RunUntil's clock
// jump lands in the same bucket as a far event that jump must migrate
// first. The checked-in corpus under testdata/fuzz seeds those shapes.
func FuzzKernelOrder(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 1, 4, 2, 8, 3, 0, 5, 0, 6, 3, 7, 9})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		sides := [2]*orderWorld{{k: &Kernel{}, seed: seed}, {k: &refKernel{}, seed: seed}}
		for _, w := range sides {
			w.k.SetTicker(w.tick)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			for _, w := range sides {
				w.apply(ops[i], ops[i+1])
			}
			sameState(t, i/2, sides[0], sides[1])
		}
		for _, w := range sides {
			w.k.Run()
		}
		sameState(t, -1, sides[0], sides[1])
	})
}
