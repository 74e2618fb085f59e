package mesh

// The cycle-level router skeleton (cycleNet) that the vc and deflection
// routers embed. A router supplies only what its model decides — a
// per-node step (the cycleRouter interface) — and the skeleton owns the
// rest:
//
//   - The recurring tick. The whole network advances inside the kernel's
//     recurring-tick slot, one tick on every cycle a packet is in flight;
//     a tick steps the nodes the step rule (below) picks, in ascending
//     node order, and each router's per-node step uses fixed port order
//     plus its own round-robin or priority state. Two runs that inject
//     the same packets at the same cycles therefore produce identical
//     deliveries. The tick re-arms with Kernel.TickNext, stops once the
//     last packet delivers, and the next inject re-arms it. A tick that
//     steps no node costs one scan of the masks, and there is no skip
//     past such cycles: every wake-up a staged flit waits on (a link
//     arrival, a vc credit return, a gated deflection injection) lands
//     within LinkLatency cycles, so a skip would elide a cycle or two.
//
//   - The step rule. A tick steps only the active nodes where something
//     can move: activeMask & (hot | arrive[now]). activeMask has bit n
//     set exactly while count[n] > 0; what count means is the router's
//     (staged packet stages under vc, staged flits under deflection), but
//     addActive and subActive are its only writers. hot marks the nodes
//     to step at the next tick, whatever its cycle: a node given a source
//     packet (marked at injection), or one whose step left a flit that
//     could still move — a due flit that lost this cycle (its input port
//     was used, it found no VC, no credit or no free output) or a local
//     queue left non-empty. arrive is a wheel of LinkLatency+1 masks: slot
//     t mod (L+1) marks the nodes a link arrival reaches at cycle t.
//     Every arrival lands exactly L cycles after the tick that pushed it,
//     so the slots of cycles now+1 .. now+L never alias the one being
//     read. The tick reads and clears hot and its slot word by word as it
//     reaches them, so a mark set mid-tick is for a later tick. While a
//     packet is in flight every cycle ticks, so every slot is read at its
//     own cycle, and a drained network holds no marks. The ascending
//     order is load-bearing: a step at node i can free a resource (a vc
//     VC, say) that a later node j > i claims in the same cycle.
//
//   - Why the step rule is exact. A node it skips has no flit at a front
//     due by now and no local candidate, so its step would move nothing
//     and change nothing: vc's VC allocation and round-robin pointers act
//     only on a ready flit, and its per-cycle input flags are reset at
//     every step. And no step makes another node ready in the same cycle:
//     link arrivals land at now+1 or later, a VC allocated downstream
//     holds no flit yet, and credits return L cycles later. So the ticks,
//     the nodes that move and every delivery are exactly those of
//     stepping every active node.
//     One duty of a step is not tied to its node: the vc router applies
//     the credit returns due by now in the tick's first step. A tick that
//     steps no node leaves them in the ring, which is safe because only a
//     step reads credits. Link advancement costs nothing per cycle either
//     (an in-flight flit sits on the downstream node's arrival ring with
//     its stamp), so a sparse fabric ticks in time proportional to its
//     moving flits, not its tile count.
//
//   - Link wiring, assigned in Topology.Links() order: the downstream
//     node and input-port index of every output port, and the upstream
//     node and output port of every input port.
//
//   - Packets. One record type serves both routers, recycled through the
//     skeleton's free list once delivered; with the routers' own free
//     lists and fixed-capacity rings, and the (src, dst) channels in a
//     table built with the router, a steady-state tick performs zero heap
//     allocations (vc_alloc_test.go and deflect_alloc_test.go pin that
//     with testing.AllocsPerRun).
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

import "math/bits"

// cycleRouter is what a cycle-level model supplies to the skeleton.
type cycleRouter interface {
	// stepNode advances active node n by one cycle.
	stepNode(n int, now int64)
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
	chSeq uint32

	// next links the packet on the free list, or on its channel's reorder
	// buffer while it waits for earlier packets to deliver.
	next *packet
}

// channel is one (src, dst) ordered channel: the reorder buffer of
// completed packets held for an earlier one (sorted by position, almost
// always empty), the injection-side sequence counter and the
// delivery-side cursor. Positions are 32-bit and wrap; two positions
// compare by their difference (seqBefore), which orders them while fewer
// than 2^31 packets of one channel are in flight at once. An entry is 16
// bytes, and the router keeps one per (src, dst) pair in a flat table.
type channel struct {
	pending     *packet
	nextInject  uint32
	nextDeliver uint32
}

// seqBefore reports whether channel position a precedes b.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

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

	// count, activeMask, hot and arrive: see the file comment. arrive
	// holds one mask per wheel slot, slots = LinkLatency+1 of them, each
	// as many words as activeMask; arriveAt is the offset of the slot
	// that this tick's link pushes land in (cycle now+LinkLatency).
	// lastTick is the cycle of the last tick; only the test-side stepLog
	// audit reads it, to tell a tick from another kernel event.
	// tickVisits counts the node steps since construction — the work
	// counter behind the step-rule tests and the router benches'
	// steps/op.
	count      []int
	activeMask []uint64
	hot        []uint64
	arrive     []uint64
	slots      int
	arriveAt   int
	lastTick   int64
	tickVisits uint64

	inFlight int // packets admitted and not yet delivered
	pktFree  *packet
	tiles    int
	chans    []channel // [src*tiles + dst]
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
	words := (tiles + 63) / 64
	c.slots = int(m.cfg.LinkLatency) + 1
	c.count = make([]int, tiles)
	c.activeMask = make([]uint64, words)
	c.hot = make([]uint64, words)
	c.arrive = make([]uint64, c.slots*words)
	c.lastTick = -1
	c.tiles = tiles
	c.chans = make([]channel, tiles*tiles)
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

// markHot has node n stepped at the next tick, whatever its cycle.
func (c *cycleNet) markHot(n int) { c.hot[n>>6] |= 1 << uint(n&63) }

// markArrival has node n stepped at the tick of cycle now+LinkLatency,
// when the flit this tick pushes onto one of its links lands.
func (c *cycleNet) markArrival(n int) { c.arrive[c.arriveAt+n>>6] |= 1 << uint(n&63) }

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
	ch := &c.chans[src*c.tiles+dst]
	pkt.ch, pkt.chSeq = ch, ch.nextInject
	ch.nextInject++
	c.inFlight++
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
		for *pp != nil && seqBefore((*pp).chSeq, pkt.chSeq) {
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

// slot returns the offset in arrive of cycle t's wheel slot.
func (c *cycleNet) slot(t int64) int { return int(t%int64(c.slots)) * len(c.hot) }

// tick advances the whole network by one cycle, and re-arms for the next
// while a packet is in flight.
func (c *cycleNet) tick() {
	now := c.m.k.Now()
	c.lastTick = now
	cur := c.slot(now)
	c.arriveAt = cur - len(c.hot) // the slot of cycle now+LinkLatency
	if c.arriveAt < 0 {
		c.arriveAt += len(c.arrive)
	}
	for w := range c.activeMask {
		mark := c.hot[w] | c.arrive[cur+w]
		c.hot[w], c.arrive[cur+w] = 0, 0
		for word := c.activeMask[w] & mark; word != 0; word &= word - 1 {
			c.tickVisits++
			c.r.stepNode(w<<6+bits.TrailingZeros64(word), now)
		}
	}
	if c.inFlight > 0 {
		c.m.k.TickNext() // once drained, the next admit re-arms the tick
	}
}
