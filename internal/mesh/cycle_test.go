package mesh

import "testing"

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
// packet in flight, no active bit, and no packet parked on a channel's
// reorder buffer.
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

func (l *stepLog) stepNode(n int, now int64) bool {
	l.stepped[n] = true
	return l.cycleRouter.stepNode(n, now)
}

// check audits the step rule after a kernel step. If the step was a tick
// that stepped nodes (it moved lastTick), every node the tick skipped
// must have had nothing that could move at that cycle. The skipped nodes'
// fronts and local queues are as they were when the tick ran: a tick
// changes them only at the nodes it steps, and the flits it puts on links
// land in later cycles.
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
