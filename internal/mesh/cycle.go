package mesh

// The cycle-level router skeleton (cycleNet) that the vc and deflection
// routers embed. A router supplies only what its model decides — a
// per-node step, a per-node arrival horizon and one router-wide bound on
// the skip (the cycleRouter interface) — and the skeleton owns the rest:
//
//   - The recurring tick. The whole network advances inside the kernel's
//     recurring-tick slot, one tick per cycle while packets are in
//     flight; a tick steps every active node in ascending node order, and
//     each router's per-node step uses fixed port order plus its own
//     round-robin or priority state. Two runs that inject the same
//     packets at the same cycles therefore produce identical deliveries.
//     The tick stops once the last packet delivers; the next inject
//     re-arms it.
//
//   - Idle skip-ahead. A tick in which no node moved anything proves the
//     network frozen: every staged flit waits on a future link arrival,
//     on a router-wide event (the vc router's next credit return, the
//     deflection router's same-cycle injection), or transitively on
//     another waiting flit. Nothing can change before the earliest of
//     those, so the next tick is armed there with Kernel.TickSkipTo
//     instead of next cycle. Arrivals already due (a flit buffered but
//     blocked) never bound the horizon: whatever unblocks them is itself
//     an arrival or a router-wide event. The kernel clamps the jump to its
//     next pending event (which may inject, and admit resets the wake
//     horizon), and TickSkipTo's sequence accounting keeps equal-timestamp
//     event ordering bit-identical to per-cycle ticking, so the skip is
//     invisible except to the wall clock. With nothing pending at all —
//     a true deadlock — the tick keeps running per cycle, so a livelock
//     watchdog built on Kernel.RunLimit reports it exactly as it would
//     have without the skip.
//
//   - O(active) ticks. A tick visits only the nodes on activeMask, which
//     has bit n set exactly while count[n] > 0; what count means is the
//     router's (staged packet stages under vc, staged flits under
//     deflection), but addActive and subActive are its only writers.
//     Iteration goes word by word via bits.TrailingZeros64, in the same
//     ascending order as a full scan — load-bearing, because a step at
//     node i can free a resource a later node j > i claims in the same
//     cycle. Each mask word is read when the iteration reaches it, so a
//     bit set mid-tick may or may not be visited this cycle; the routers
//     only set bits mid-tick for nodes whose new state cannot move this
//     cycle (a VC just allocated downstream, a flit just put on a link),
//     so either way is behavior-neutral. Link advancement costs nothing
//     per cycle: an in-flight flit sits in the downstream node's arrival
//     queue with its arrival stamp, and that node is already active, so a
//     sparse fabric ticks in time proportional to its traffic, not its
//     tile count.
//
//   - Link wiring, assigned in Topology.Links() order: the downstream
//     node and input-port index of every output port, and the upstream
//     node and output port of every input port.
//
//   - Packets. One record type serves both routers, recycled through the
//     skeleton's free list once delivered; with the routers' own free
//     lists and fixed-capacity rings, a steady-state tick performs zero
//     heap allocations (vc_alloc_test.go and deflect_alloc_test.go pin
//     that with testing.AllocsPerRun).
//
//   - Point-to-point order. The coherence protocols — like every fabric
//     client built against the ideal router — assume each (src, dst)
//     channel delivers in injection order, and neither cycle-level model
//     guarantees it on its own: deflections reorder packets, and so do
//     vc's round-robin allocators once a dateline class holds more than
//     one VC. So every packet carries its position on its channel, and
//     deliver holds a packet that completes early on the channel's
//     reorder buffer until every earlier packet has delivered. Its latency
//     window runs to that release cycle, so the reordering cost is
//     measured rather than leaked into the protocol.

import (
	"math"
	"math/bits"
)

// cycleRouter is what a cycle-level model supplies to the skeleton.
type cycleRouter interface {
	// stepNode advances active node n by one cycle and reports whether
	// anything moved.
	stepNode(n int, now int64) bool
	// horizon returns the earliest cycle after now at which a flit
	// reaches node n over a link, or MaxInt64 if none is in flight.
	horizon(n int, now int64) int64
	// skipBound returns the router-wide cap on the skip after a tick that
	// moved nothing, or MaxInt64 if there is none.
	skipBound(now int64) int64
}

// linkEnd names one end of a link: a node and a port index on it.
type linkEnd struct{ node, port int }

// packet is one packet on a cycle-level network.
type packet struct {
	dst, flits int
	payload    any
	injectAt   int64

	// The deflection router's fields: the minimal route length (for
	// deflected-hop accounting), the per-router injection sequence (the
	// priority tiebreak) and the flits ejected at dst so far.
	minHops int
	seq     uint64
	arrived int

	// The packet's (src, dst) channel and its position on it (see
	// deliver).
	ch    *channel
	chSeq uint64

	// next links the packet on the free list, or on its channel's reorder
	// buffer while it waits for earlier packets to deliver.
	next *packet
}

// channel is one (src, dst) ordered channel: the injection-side sequence
// counter, the delivery-side cursor, and the reorder buffer of completed
// packets held for an earlier one (sorted by chSeq, almost always empty).
// Records are created on a channel's first packet and kept for the life
// of the router, so the steady state allocates nothing.
type channel struct {
	nextInject  uint64
	nextDeliver uint64
	pending     *packet
}

// cycleNet is the skeleton state. Routers embed it and call init from
// their constructors.
type cycleNet struct {
	m *Mesh
	r cycleRouter

	// down[n][p] is the downstream node and its input-port index of node
	// n's output port p (node -1: no link); up[n][i] is the upstream node
	// and output port feeding node n's input port i.
	down [][]linkEnd
	up   [][]linkEnd

	// count and activeMask: see the file comment. tickVisits counts the
	// node steps since construction — the work counter behind the
	// O(active) tests.
	count      []int
	activeMask []uint64
	tickVisits uint64

	// wake is the cycle before which no staged flit can move (set by a
	// tick that moved nothing; 0 = the next tick must step).
	wake int64

	inFlight int // packets admitted and not yet delivered
	pktFree  *packet
	chans    map[uint64]*channel // keyed src<<32 | dst
}

func (c *cycleNet) init(m *Mesh, r cycleRouter) {
	tiles, ports := m.topo.Tiles(), m.topo.Ports()
	c.m, c.r = m, r
	c.down = make([][]linkEnd, tiles)
	for n := range c.down {
		c.down[n] = make([]linkEnd, ports)
		for p := range c.down[n] {
			c.down[n][p].node = -1
		}
	}
	c.up = make([][]linkEnd, tiles)
	for _, l := range m.topo.Links() {
		c.down[l.From][l.Port] = linkEnd{l.To, len(c.up[l.To])}
		c.up[l.To] = append(c.up[l.To], linkEnd{l.From, l.Port})
	}
	c.count = make([]int, tiles)
	c.activeMask = make([]uint64, (tiles+63)/64)
	c.chans = make(map[uint64]*channel)
	m.k.SetTicker(c.tick)
}

// addActive and subActive adjust node n's count by k and keep activeMask
// in step; they are the only writers of either.
func (c *cycleNet) addActive(n, k int) {
	if c.count[n] == 0 {
		c.activeMask[n>>6] |= 1 << uint(n&63)
	}
	c.count[n] += k
}

func (c *cycleNet) subActive(n, k int) {
	c.count[n] -= k
	if c.count[n] == 0 {
		c.activeMask[n>>6] &^= 1 << uint(n&63)
	}
}

// admit takes a record for a new packet from src, numbers it on its
// channel, counts it in flight and wakes the tick. The router stages it.
func (c *cycleNet) admit(src, dst, flits int, payload any) *packet {
	pkt := c.pktFree
	if pkt == nil {
		pkt = &packet{}
	} else {
		c.pktFree = pkt.next
		pkt.next = nil
	}
	pkt.dst, pkt.flits, pkt.payload, pkt.injectAt = dst, flits, payload, c.m.k.Now()
	key := uint64(src)<<32 | uint64(dst)
	ch := c.chans[key]
	if ch == nil {
		ch = &channel{}
		c.chans[key] = ch
	}
	pkt.ch, pkt.chSeq = ch, ch.nextInject
	ch.nextInject++
	c.inFlight++
	c.wake = 0 // a fresh packet invalidates any frozen-state proof
	if !c.m.k.TickArmed() {
		c.m.k.TickNext()
	}
	return pkt
}

// deliver completes a packet whose last flit has left the network at its
// destination n, in channel order: if earlier packets of its channel are
// still in flight it parks on the channel's reorder buffer, otherwise it
// delivers now — and releases any parked successors its delivery
// unblocks, at the same cycle. Liveness is inductive: the channel's
// earliest undelivered packet is never parked, so its flits are on the
// fabric and the router delivers it.
func (c *cycleNet) deliver(n int, pkt *packet, now int64) {
	ch := pkt.ch
	if pkt.chSeq != ch.nextDeliver {
		pp := &ch.pending
		for *pp != nil && (*pp).chSeq < pkt.chSeq {
			pp = &(*pp).next
		}
		pkt.next = *pp
		*pp = pkt
		return
	}
	for {
		ch.nextDeliver++
		c.m.complete(n, pkt.payload, pkt.injectAt, now)
		c.inFlight--
		pkt.payload, pkt.ch = nil, nil
		pkt.next = c.pktFree
		c.pktFree = pkt
		if ch.pending == nil || ch.pending.chSeq != ch.nextDeliver {
			return
		}
		pkt = ch.pending
		ch.pending = pkt.next
	}
}

// tick advances the whole network by one cycle, or proves the cycle (and
// possibly a run of following ones) frozen and skips ahead.
func (c *cycleNet) tick() {
	now := c.m.k.Now()
	if now < c.wake {
		// Still inside a proven-frozen window (the kernel pulled the tick
		// earlier for a queued event that turned out not to inject).
		c.m.k.TickSkipTo(c.wake)
		return
	}
	progressed := false
	for w, word := range c.activeMask {
		for ; word != 0; word &= word - 1 {
			c.tickVisits++
			if c.r.stepNode(w<<6+bits.TrailingZeros64(word), now) {
				progressed = true
			}
		}
	}
	if c.inFlight == 0 {
		return // network drained; the next admit re-arms the tick
	}
	if progressed {
		c.wake = 0
		c.m.k.TickNext()
		return
	}
	wake := c.r.skipBound(now)
	for w, word := range c.activeMask {
		for ; word != 0; word &= word - 1 {
			if t := c.r.horizon(w<<6+bits.TrailingZeros64(word), now); t < wake {
				wake = t
			}
		}
	}
	if wake == math.MaxInt64 {
		// Nothing pending at all: a true deadlock. Keep ticking per cycle
		// so a RunLimit livelock watchdog reports it.
		c.wake = 0
		c.m.k.TickNext()
		return
	}
	c.wake = wake
	c.m.k.TickSkipTo(wake)
}
