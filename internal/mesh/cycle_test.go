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
	for key, ch := range c.chans {
		if ch.pending != nil || ch.nextDeliver != ch.nextInject {
			t.Fatalf("drained channel %d->%d delivered %d of %d packets", key>>32, key&(1<<32-1), ch.nextDeliver, ch.nextInject)
		}
	}
}
