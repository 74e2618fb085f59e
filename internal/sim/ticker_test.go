package sim

import (
	"math/rand"
	"testing"
)

func TestTickerFiresNextCycle(t *testing.T) {
	var k Kernel
	var fired []int64
	k.SetTicker(func() {
		fired = append(fired, k.Now())
		if k.Now() < 3 {
			k.TickNext()
		}
	})
	if k.TickArmed() {
		t.Fatal("tick armed before TickNext")
	}
	k.TickNext()
	if !k.TickArmed() {
		t.Fatal("tick not armed after TickNext")
	}
	k.Run()
	want := []int64{1, 2, 3}
	if len(fired) != len(want) {
		t.Fatalf("tick fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("tick fired at %v, want %v", fired, want)
		}
	}
	if k.TickArmed() {
		t.Fatal("tick still armed after drain")
	}
}

func TestSetTickerTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second SetTicker did not panic")
		}
	}()
	var k Kernel
	k.SetTicker(func() {})
	k.SetTicker(func() {})
}

func TestTickNextWithoutTickerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TickNext without SetTicker did not panic")
		}
	}()
	var k Kernel
	k.TickNext()
}

func TestTickNextWhileArmedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double arm did not panic")
		}
	}()
	var k Kernel
	k.SetTicker(func() {})
	k.TickNext()
	k.TickNext()
}

// TickSkipTo must not jump past a pending event: that event may change
// what the tick can do (in the simulator, injecting a packet).
func TestTickSkipToClampsToHeapEvent(t *testing.T) {
	var k Kernel
	var tickAt []int64
	k.SetTicker(func() {
		tickAt = append(tickAt, k.Now())
		if k.Now() < 100 {
			k.TickSkipTo(100)
		}
	})
	evtAt := int64(-1)
	k.At(40, func() { evtAt = k.Now() })
	k.TickSkipTo(100)
	k.Run()
	if evtAt != 40 {
		t.Fatalf("event fired at %d, want 40", evtAt)
	}
	// The tick is pulled to the event's cycle, re-skips, then lands at 100.
	want := []int64{40, 100}
	if len(tickAt) != len(want) || tickAt[0] != want[0] || tickAt[1] != want[1] {
		t.Fatalf("tick fired at %v, want %v", tickAt, want)
	}
	if k.Clamped() != 0 {
		t.Fatalf("Clamped = %d, want 0", k.Clamped())
	}
}

// Skipping to the past is a caller bug and must be counted like At's clamp,
// with the tick landing on the next cycle so time still moves forward.
func TestTickSkipToPastClamped(t *testing.T) {
	var k Kernel
	var tickAt []int64
	k.SetTicker(func() {
		tickAt = append(tickAt, k.Now())
		if len(tickAt) == 1 {
			k.TickSkipTo(k.Now() - 3)
		}
	})
	k.At(10, func() {})
	k.TickSkipTo(10)
	k.Run()
	if len(tickAt) != 2 || tickAt[0] != 10 || tickAt[1] != 11 {
		t.Fatalf("tick fired at %v, want [10 11]", tickAt)
	}
	if k.Clamped() != 1 {
		t.Fatalf("Clamped = %d, want 1", k.Clamped())
	}
}

// RunUntil must execute an armed tick that falls inside the window, leave
// one beyond the window armed, and still advance the clock to t exactly.
func TestRunUntilWithArmedTick(t *testing.T) {
	var k Kernel
	var tickAt []int64
	k.SetTicker(func() {
		tickAt = append(tickAt, k.Now())
		k.TickSkipTo(k.Now() + 50)
	})
	k.TickSkipTo(10)
	k.RunUntil(30)
	if len(tickAt) != 1 || tickAt[0] != 10 {
		t.Fatalf("tick fired at %v inside RunUntil(30), want [10]", tickAt)
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %d after RunUntil(30), want 30", k.Now())
	}
	if !k.TickArmed() {
		t.Fatal("tick beyond the window must stay armed")
	}
	if at, ok := k.NextEventAt(); !ok || at != 60 {
		t.Fatalf("NextEventAt = %d,%v, want 60,true", at, ok)
	}
	k.RunUntil(60)
	if len(tickAt) != 2 || tickAt[1] != 60 {
		t.Fatalf("tick fired at %v, want second firing at 60", tickAt)
	}
}

// RunLimit is the driver's livelock watchdog: recurring-slot ticks must
// count against the budget exactly like queued events, or a spinning router
// could starve the watchdog forever.
func TestRunLimitCountsSlotTicks(t *testing.T) {
	var k Kernel
	ticks := 0
	k.SetTicker(func() {
		ticks++
		k.TickNext() // spin forever, like a deadlocked vc network
	})
	k.TickNext()
	if n := k.RunLimit(50); n != 50 {
		t.Fatalf("RunLimit ran %d, want 50", n)
	}
	if ticks != 50 {
		t.Fatalf("ticker fired %d times, want 50", ticks)
	}
	if !k.TickArmed() {
		t.Fatal("tick must remain armed after the watchdog cuts it off")
	}
}

func TestNextEventAt(t *testing.T) {
	var k Kernel
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("NextEventAt on empty kernel reported an event")
	}
	k.At(7, func() {})
	if at, ok := k.NextEventAt(); !ok || at != 7 {
		t.Fatalf("NextEventAt = %d,%v, want 7,true", at, ok)
	}
	k.SetTicker(func() {})
	k.TickSkipTo(3)
	if at, ok := k.NextEventAt(); !ok || at != 3 {
		t.Fatalf("NextEventAt = %d,%v, want 3,true (armed tick is earlier)", at, ok)
	}
}

// The exactness contract of the recurring-tick slot: a slot ticker that
// skips provably idle cycles with TickSkipTo must produce the exact global
// event order of a reference ticker that re-arms every cycle with
// After(1, tick) — including every equal-timestamp interleaving with queued
// events, and with events scheduling further events mid-run. A quarter of
// the spawns are one to three wheel spans ahead, so far-tier events migrate
// into buckets the chain's per-cycle ticks and the slot's skips both reach.
func TestSlotOrderingMatchesPerCycleChain(t *testing.T) {
	const horizon = 4 * wheelSpan
	// "Work" cycles are the ones where the tick does something observable;
	// on all other cycles the tick is a no-op, which is what licenses the
	// slot version to skip them.
	work := func(c int64) bool { return c%7 == 0 || c%5 == 3 }
	nextWork := func(c int64) int64 {
		for t := c + 1; ; t++ {
			if work(t) {
				return t
			}
		}
	}

	run := func(slot bool) []int64 {
		var k Kernel
		var log []int64 // tick firings: +cycle; event firings: -(id+1)
		rng := rand.New(rand.NewSource(99))
		var tick func()
		tick = func() {
			now := k.Now()
			if work(now) {
				log = append(log, now)
			}
			if now >= horizon {
				return
			}
			if slot {
				if nw := nextWork(now); nw <= horizon {
					k.TickSkipTo(nw)
				}
				// No work cycle left inside the horizon: the chain would
				// only tick no-ops from here, so the slot stops.
			} else {
				k.After(1, tick)
			}
		}
		id := 0
		var spawn func(depth int)
		spawn = func(depth int) {
			me := int64(id)
			id++
			d := int64(rng.Intn(25))
			if rng.Intn(4) == 0 {
				d += int64(1+rng.Intn(3)) * wheelSpan
			}
			k.At(k.Now()+d, func() {
				log = append(log, -(me + 1))
				if depth < 3 {
					spawn(depth + 1)
					spawn(depth + 1)
				}
			})
		}
		for i := 0; i < 12; i++ {
			spawn(0)
		}
		if slot {
			k.SetTicker(tick)
			k.TickNext()
		} else {
			k.After(1, tick)
		}
		k.Run()
		return log
	}

	chain, slot := run(false), run(true)
	if len(chain) != len(slot) {
		t.Fatalf("event counts differ: chain %d, slot %d", len(chain), len(slot))
	}
	for i := range chain {
		if chain[i] != slot[i] {
			t.Fatalf("order diverges at %d: chain %v, slot %v", i, chain[i], slot[i])
		}
	}
}

// noop is a package-level event body so scheduling benches measure the
// queue, not closure allocation.
func noop() {}

func noopArg(any) {}

// BenchmarkEventPushPop measures near-tier (timing wheel) traffic: 64
// out-of-order pushes less than 64 cycles ahead, then 64 pops, per
// iteration.
func BenchmarkEventPushPop(b *testing.B) {
	var k Kernel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := k.Now()
		for j := 0; j < 64; j++ {
			k.At(base+int64((j*37)%64), noop)
		}
		for j := 0; j < 64; j++ {
			k.Step()
		}
	}
}

// BenchmarkRecurringTickSlot measures the dedicated slot: one tick per
// cycle with TickNext re-arming, no queue traffic at all.
func BenchmarkRecurringTickSlot(b *testing.B) {
	var k Kernel
	b.ReportAllocs()
	n := 0
	k.SetTicker(func() {
		n++
		if n < b.N {
			k.TickNext()
		}
	})
	k.TickNext()
	k.Run()
}

// BenchmarkRecurringTickChain is the pre-slot baseline: a per-cycle ticker
// that re-arms through the queue with After(1, ...), paying a push+pop and
// a closure per cycle.
func BenchmarkRecurringTickChain(b *testing.B) {
	var k Kernel
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	k.Run()
}

// BenchmarkRunUntil measures windowed draining over a sparse schedule, the
// driver's inner loop during sweeps.
func BenchmarkRunUntil(b *testing.B) {
	var k Kernel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.AtArg(k.Now()+int64(i%128), noopArg, nil)
		if k.Pending() >= 1024 {
			k.RunUntil(k.Now() + 256)
		}
	}
	k.Run()
}

// BenchmarkEventMix replays the queue shape of the paper's Tiny figure
// matrix: about 730 events pending, 96.6% of pushes less than 256 cycles
// ahead, 2.9% at the 10,000-cycle DeNovo write-combining timeout (nearly
// all of which fire long after their entry left) and the rest between 256
// cycles and two wheel spans. One op is one pop plus one push.
func BenchmarkEventMix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]int64, 4096)
	for i := range delays {
		switch r := rng.Intn(1000); {
		case r < 29:
			delays[i] = 10_000
		case r < 34:
			delays[i] = 256 + rng.Int63n(2*wheelSpan-256)
		default:
			delays[i] = rng.Int63n(1 + rng.Int63n(256)) // skewed toward near
		}
	}
	var k Kernel
	for i := 0; i < 730; i++ {
		k.AtArg(delays[i%len(delays)], noopArg, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
		k.AtArg(k.Now()+delays[i%len(delays)], noopArg, nil)
	}
}
