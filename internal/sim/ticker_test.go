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

// The exactness contract of the recurring-tick slot: a slot ticker that
// re-arms every cycle with TickNext must produce the exact global event
// order of a reference ticker that re-arms every cycle with
// After(1, tick) — including every equal-timestamp interleaving with queued
// events, and with events scheduling further events mid-run. A quarter of
// the spawns are one to three wheel spans ahead, so far-tier events migrate
// into buckets that the per-cycle ticks reach.
func TestSlotOrderingMatchesPerCycleChain(t *testing.T) {
	const horizon = 4 * wheelSpan
	run := func(slot bool) []int64 {
		var k Kernel
		var log []int64 // tick firings: +cycle; event firings: -(id+1)
		rng := rand.New(rand.NewSource(99))
		var tick func()
		tick = func() {
			now := k.Now()
			log = append(log, now)
			if now >= horizon {
				return
			}
			if slot {
				k.TickNext()
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
