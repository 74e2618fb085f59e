package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyKernel(t *testing.T) {
	var k Kernel
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %d, want 0", k.Now())
	}
	k.Run() // must not hang
}

// TestRecycledKernelStartsEmpty recycles a kernel in mid-run, with near
// and far events pending and its recurring tick armed, and requires the
// next NewKernel to start where a zero Kernel does and to run the same
// schedule the same way.
func TestRecycledKernelStartsEmpty(t *testing.T) {
	schedule := func(k *Kernel) []int64 {
		var fired []int64
		for _, at := range []int64{5, 3, 2000, 3, 7000} {
			k.At(at, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		return fired
	}
	want := schedule(&Kernel{})
	// A -race build drops a quarter of the pool's puts at random, so try
	// until one is taken back.
	for attempt := 0; attempt < 20; attempt++ {
		dirty := NewKernel()
		dirty.SetTicker(func() {})
		schedule(dirty)
		dirty.At(dirty.Now()+3, func() {})
		dirty.At(dirty.Now()+5000, func() {})
		dirty.TickNext()
		dirty.Step()
		dirty.Recycle()
		k := NewKernel()
		if k != dirty {
			continue
		}
		if k.Now() != 0 || k.Pending() != 0 || k.Steps() != 0 || k.Clamped() != 0 || k.TickArmed() {
			t.Fatalf("recycled kernel: now %d, %d pending, %d steps, %d clamped, tick armed %v",
				k.Now(), k.Pending(), k.Steps(), k.Clamped(), k.TickArmed())
		}
		k.SetTicker(func() {}) // panics if the last run's ticker stayed
		if got := schedule(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("recycled kernel fired at %v, a fresh one at %v", got, want)
		}
		return
	}
	t.Fatal("no recycled kernel was ever taken back")
}

func TestOrdering(t *testing.T) {
	var k Kernel
	var got []int64
	for _, at := range []int64{30, 10, 20} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.Run()
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameCycle(t *testing.T) {
	var k Kernel
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events not FIFO: pos %d = %d", i, got[i])
		}
	}
}

func TestAfterRelative(t *testing.T) {
	var k Kernel
	var fired int64 = -1
	k.At(10, func() {
		k.After(5, func() { fired = k.Now() })
	})
	k.Run()
	if fired != 15 {
		t.Fatalf("After fired at %d, want 15", fired)
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	var k Kernel
	var fired int64 = -1
	k.At(10, func() {
		k.At(3, func() { fired = k.Now() }) // in the past: clamps to now
	})
	k.Run()
	if fired != 10 {
		t.Fatalf("past event fired at %d, want clamp to 10", fired)
	}
	if k.Clamped() != 1 {
		t.Fatalf("Clamped = %d, want 1: past scheduling must be counted, not silent", k.Clamped())
	}
}

// Regression for the silent-clamp bug: well-behaved schedules (present and
// future timestamps only, including t == now) must never bump the counter.
func TestClampedZeroForValidSchedules(t *testing.T) {
	var k Kernel
	k.At(5, func() {
		k.At(k.Now(), func() {}) // t == now is legal, not a clamp
		k.After(0, func() {})
		k.After(7, func() {})
	})
	k.Run()
	if k.Clamped() != 0 {
		t.Fatalf("Clamped = %d, want 0 for a valid schedule", k.Clamped())
	}
}

func TestRunLimit(t *testing.T) {
	var k Kernel
	for i := 0; i < 10; i++ {
		k.At(int64(i), func() {})
	}
	if n := k.RunLimit(4); n != 4 {
		t.Fatalf("RunLimit ran %d, want 4", n)
	}
	if k.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", k.Pending())
	}
}

func TestSteps(t *testing.T) {
	var k Kernel
	k.At(1, func() {})
	k.At(2, func() {})
	k.Run()
	if k.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", k.Steps())
	}
}

// Property: events fire in nondecreasing timestamp order, and equal
// timestamps fire in scheduling order, for random schedules that mix At,
// AtArg and After(0, ...) — the last scheduled from inside running events,
// so order must hold across the payload slab's slot reuse too.
func TestEventOrderProperty(t *testing.T) {
	type rec struct {
		at  int64
		ins int
	}
	f := func(times []uint8, kinds []uint8) bool {
		var k Kernel
		var fired []rec
		ins := 0
		record := func(a any) { fired = append(fired, *a.(*rec)) }
		for i, ti := range times {
			at := int64(ti)
			kind := uint8(0)
			if i < len(kinds) {
				kind = kinds[i] % 3
			}
			r := &rec{at, ins}
			ins++
			switch kind {
			case 0:
				k.At(at, func() { fired = append(fired, *r) })
			case 1:
				k.AtArg(at, record, r)
			case 2:
				// An event at at that schedules a same-cycle follow-up: the
				// follow-up draws its sequence number when the outer event
				// runs, so it orders after everything scheduled up front.
				k.At(at, func() {
					fired = append(fired, *r)
					k.After(0, func() { fired = append(fired, rec{at, -1}) })
				})
			}
		}
		k.Run()
		want := len(times)
		for _, kd := range kinds[:min(len(kinds), len(times))] {
			if kd%3 == 2 {
				want++
			}
		}
		if len(fired) != want {
			return false
		}
		var up []rec // the events scheduled before Run, in firing order
		for i, r := range fired {
			if i > 0 && r.at < fired[i-1].at {
				return false
			}
			if r.ins >= 0 {
				up = append(up, r)
			}
		}
		return sort.SliceIsSorted(up, func(i, j int) bool {
			if up[i].at != up[j].at {
				return up[i].at < up[j].at
			}
			return up[i].ins < up[j].ins
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// tickArg is a free-listed event argument for TestKernelAtArgZeroAlloc.
type tickArg struct{ n int }

func bump(a any) { a.(*tickArg).n++ }

// A steady At/AtArg/After -> Step loop allocates nothing: keys and payload
// slots are recycled, a package-level function plus a pointer argument
// build no closure, and At and After carry an existing func value in the
// event's argument. One push in eight is 10,000 cycles ahead, so every run
// also takes an event through the far heap and migrates it into the wheel.
func TestKernelAtArgZeroAlloc(t *testing.T) {
	var k Kernel
	args := make([]*tickArg, 16)
	for i := range args {
		args[i] = &tickArg{}
		k.AtArg(int64(i)*1_000, bump, args[i]) // warm up both tiers and the slab
	}
	for k.Step() {
	}
	calls := 0
	call := func() { calls++ }
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for j := 0; j < 8; j++ {
			d := int64(j % 3)
			if j == 7 {
				d = 10_000
			}
			switch j % 3 {
			case 0:
				k.AtArg(k.Now()+d, bump, args[i%len(args)])
			case 1:
				k.At(k.Now()+d, call)
			default:
				k.After(d, call)
			}
			i++
		}
		for j := 0; j < 8; j++ {
			k.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("At/AtArg/After->Step loop allocated %.1f times per run, want 0", allocs)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after balanced loop, want 0", k.Pending())
	}
	bumps := -len(args) // the warm-up's
	for _, a := range args {
		bumps += a.n
	}
	if bumps+calls != i {
		t.Fatalf("%d AtArg and %d At/After events ran, want %d in all", bumps, calls, i)
	}
}

// Property: interleaving At calls from within running events preserves
// global time ordering (time never goes backwards).
func TestTimeMonotonicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var k Kernel
	last := int64(-1)
	ok := true
	var spawn func(depth int)
	spawn = func(depth int) {
		if k.Now() < last {
			ok = false
		}
		last = k.Now()
		if depth < 4 {
			for i := 0; i < 3; i++ {
				k.After(int64(rng.Intn(20)), func() { spawn(depth + 1) })
			}
		}
	}
	k.At(0, func() { spawn(0) })
	k.Run()
	if !ok {
		t.Fatal("time went backwards")
	}
}

func BenchmarkKernelSchedule(b *testing.B) {
	var k Kernel
	for i := 0; i < b.N; i++ {
		k.After(int64(i%64), func() {})
		if k.Pending() > 1024 {
			for k.Pending() > 0 {
				k.Step()
			}
		}
	}
	k.Run()
}
