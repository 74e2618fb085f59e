package mesh

import (
	"testing"

	"repro/internal/sim"
)

// TestOneTickPerCycleInFlight pins the skeleton's one clock. A single-flit
// packet crossing a 16x16 mesh reaches a router only every LinkLatency
// cycles, yet the network ticks on every cycle it is in flight, stepping
// no node on the cycles between, and stops with the tick that delivers
// it. So the kernel steps once per cycle of the packet's latency, plus
// once for the delivery event.
func TestOneTickPerCycleInFlight(t *testing.T) {
	const latency = 3
	for _, router := range []string{"vc", "deflection"} {
		t.Run(router, func(t *testing.T) {
			k := &sim.Kernel{}
			m := New(k, Config{Width: 16, Height: 16, Router: router, LinkLatency: latency})
			delivered := int64(-1)
			for tile := 0; tile < m.Tiles(); tile++ {
				m.Register(tile, func(any) { delivered = k.Now() })
			}
			hops := m.Send(0, m.Tiles()-1, 1, nil)
			k.Run()
			// Uncontended, one flit takes hops*LinkLatency + 1 cycles.
			want := int64(hops)*latency + 1
			if delivered != want {
				t.Fatalf("delivered at cycle %d, want %d", delivered, want)
			}
			if steps := k.Steps(); steps != uint64(want)+1 {
				t.Fatalf("the kernel stepped %d times over a %d-cycle flight, want %d: one tick per cycle and the delivery",
					steps, want, want+1)
			}
		})
	}
}

// checkMaskCount verifies the skeleton's membership invariant, which both
// routers' audits share: activeMask bit n is set exactly while count[n] >
// 0, and no count is negative.
func checkMaskCount(t *testing.T, c *cycleNet) {
	t.Helper()
	for n, cnt := range c.count {
		if cnt < 0 {
			t.Fatalf("node %d: count = %d", n, cnt)
		}
		if bit := c.activeMask[n>>6]>>uint(n&63)&1 == 1; bit != (cnt > 0) {
			t.Fatalf("node %d: activeMask bit %v but count = %d", n, bit, cnt)
		}
	}
}

// checkDrained asserts the skeleton's side of a fully drained network: no
// packet in flight, no active bit, no wake mark in hot or in any arrival
// slot (so the tick that stopped left nothing for a later one), and no
// packet parked on a channel's reorder buffer.
func checkDrained(t *testing.T, c *cycleNet) {
	t.Helper()
	if c.inFlight != 0 {
		t.Fatalf("drained network still accounts %d packets", c.inFlight)
	}
	for w, word := range c.activeMask {
		if word != 0 {
			t.Fatalf("drained network still has active bits in word %d: %#x", w, word)
		}
	}
	for w, word := range c.hot {
		if word != 0 {
			t.Fatalf("drained network still has hot marks in word %d: %#x", w, word)
		}
	}
	for i, word := range c.arrive {
		if word != 0 {
			t.Fatalf("drained network still has arrival marks in slot %d word %d: %#x", i/len(c.hot), i%len(c.hot), word)
		}
	}
	for i := range c.chans {
		if ch := &c.chans[i]; ch.pending != nil || ch.nextDeliver != ch.nextInject {
			t.Fatalf("drained channel %d->%d delivered %d of %d packets", i/c.tiles, i%c.tiles, ch.nextDeliver, ch.nextInject)
		}
	}
}

// stepLog wraps a cycle-level router to record which nodes each tick
// steps, without changing the steps, so that a test can audit the step
// rule after every kernel step (check).
type stepLog struct {
	cycleRouter
	c       *cycleNet
	stepped []bool
	last    int64 // c.lastTick as of the last check
	// movable describes what at node n could move at cycle now, or
	// returns "" if nothing could.
	movable func(n int, now int64) string
}

// newStepLog installs a stepLog on c.
func newStepLog(c *cycleNet, movable func(n int, now int64) string) *stepLog {
	l := &stepLog{cycleRouter: c.r, c: c, stepped: make([]bool, len(c.count)), last: c.lastTick,
		movable: movable}
	c.r = l
	return l
}

func (l *stepLog) stepNode(n int, now int64) {
	l.stepped[n] = true
	l.cycleRouter.stepNode(n, now)
}

// check audits the step rule after a kernel step. If the step was a tick
// (it moved lastTick), whether it stepped nodes or none, every node the
// tick skipped must have had nothing that could move at that cycle. The
// skipped nodes' fronts and local queues are as they were when the tick
// ran: a tick changes them only at the nodes it steps, and the flits it
// puts on links land in later cycles.
func (l *stepLog) check(t *testing.T) {
	t.Helper()
	if now := l.c.lastTick; now != l.last {
		l.last = now
		for n, stepped := range l.stepped {
			if why := l.movable(n, now); !stepped && why != "" {
				t.Fatalf("cycle %d: the tick skipped node %d, but %s", now, n, why)
			}
		}
	}
	clear(l.stepped)
}
