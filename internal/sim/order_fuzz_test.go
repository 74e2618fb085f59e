package sim

import (
	"slices"
	"sort"
	"testing"
)

// refKernel is the reference FuzzKernelOrder checks Kernel against: the
// same scheduling contract (clamping, the recurring-tick slot and its seq
// accounting) over one slice kept sorted by (at, seq). It is slow and
// plainly in order.
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

// TickNext arms the tick for the next cycle as After(1, tick) would: with
// the next sequence number.
func (r *refKernel) TickNext() {
	r.tickAt, r.tickSeq = r.now+1, r.seq
	r.seq++
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

// earliest returns the cycle and sequence number of the first queued
// event, the recurring tick aside, as Kernel.earliest does.
func (r *refKernel) earliest() (int64, uint64, bool) {
	if len(r.q) == 0 {
		return 0, 0, false
	}
	return r.q[0].at, r.q[0].seq, true
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
	Step() bool
	Run()
	RunLimit(uint64) uint64
	earliest() (int64, uint64, bool)
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

// fire logs id, schedules up to two children from inside the callback
// and, one time in four, arms the tick if it is idle, as a packet
// injected into a drained network does.
func (w *orderWorld) fire(id int) {
	w.log = append(w.log, id)
	h := splitmix(w.seed ^ uint64(id)<<20)
	if h>>62 == 0 && !w.k.TickArmed() {
		w.k.TickNext()
	}
	for n := h % 3; n > 0 && w.nextID < maxOrderEvents; n-- {
		h = splitmix(h)
		w.schedule(h>>8, orderDelay(h>>16))
	}
}

// tick logs the tick and re-arms it with TickNext, or, one time in eight,
// stops, as a drained network does.
func (w *orderWorld) tick() {
	w.log = append(w.log, -1)
	w.ticks++
	if w.ticks < maxOrderTicks && splitmix(w.seed^w.ticks<<40)%8 != 0 {
		w.k.TickNext()
	}
}

// apply runs one fuzzed call from outside any callback: op%6 picks At,
// AtArg or After at the offset arg picks, arming the tick, Step, or
// RunLimit of up to 15 events.
func (w *orderWorld) apply(op, arg byte) {
	switch op % 6 {
	case 0, 1, 2:
		w.schedule(uint64(op), orderDelay(uint64(arg)))
	case 3:
		if !w.k.TickArmed() {
			w.k.TickNext()
		}
	case 4:
		w.k.Step()
	case 5:
		w.k.RunLimit(uint64(arg % 16))
	}
}

// orderState is everything a scheduler reports, and the head of its queue.
type orderState struct {
	now       int64
	steps     uint64
	pending   int
	headAt    int64
	headSeq   uint64
	ok        bool
	clamped   uint64
	tickArmed bool
}

func readState(k scheduler) orderState {
	at, seq, ok := k.earliest()
	return orderState{now: k.Now(), steps: k.Steps(), pending: k.Pending(), headAt: at, headSeq: seq,
		ok: ok, clamped: k.Clamped(), tickArmed: k.TickArmed()}
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
// past offsets; arming the recurring tick; Step and RunLimit) runs on
// Kernel and on refKernel, with every event scheduling children, and
// sometimes arming the tick, from inside its callback, and the ticker
// re-arming itself with TickNext until it stops. After every call both
// must have fired the same events in the same order and agree on Now,
// Steps, Pending, Clamped, TickArmed and the (cycle, seq) of the earliest
// queued event. The outside pushes matter: a push right after a tick or a
// far root moved the clock lands in the same bucket as the far events that
// move had to migrate first. The checked-in corpus under testdata/fuzz
// seeds those shapes.
func FuzzKernelOrder(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 1, 4, 2, 8, 3, 0, 4, 0, 5, 3})
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
