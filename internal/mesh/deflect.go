package mesh

// The cycle-level deflection router (Config.Router = "deflection"), on
// the cycle-level skeleton in cycle.go: a minimally-buffered
// (bufferless-style) forwarding model in the BLESS/CHIPPER/MinBD lineage.
// Routers hold no packet buffers on the links: every flit that arrives at
// a router this cycle must leave it this cycle — through its productive
// output port when it wins arbitration, through any free non-productive
// port (a *deflection*) when it loses, or into the node's small local
// side buffer in the one case per cycle where every output is taken. The
// model trades buffer area for extra link traversals, which is exactly
// the tradeoff the paper's waste accounting can measure: the extra
// traversals surface as NetStats.DeflectedHops, a waste category neither
// "ideal" nor "vc" can express.
//
// Flit-level forwarding and reassembly: packets are split into flits at
// injection and every flit routes independently (deflections reorder
// them freely), so the destination counts arrivals and completes the
// packet when the last flit ejects. A packet's latency is therefore
// injection to last-flit ejection, directly comparable with the vc
// router's header-to-tail window (both models deliver an uncontended
// packet in hops*LinkLatency + flits cycles; one flit in hops*L + 1).
//
// Priority and livelock freedom: contention is resolved oldest-first by
// the strict total order (packet injection cycle, packet sequence
// number, flit index). The globally oldest staged flit wins every
// arbitration it enters — ejection and output ports are assigned in
// priority order at its node, nothing at another node competes for them
// — so it moves productively every cycle it is staged and delivers in
// bounded time; induction over the order gives every flit a delivery
// bound. No separate age threshold is needed: age *is* the priority.
//
// The side buffer: with the symmetric registered topologies (every
// node's in-degree equals its out-degree), a cycle's candidates at a
// node are at most in-degree arrivals plus one local flit, against
// out-degree links plus one ejection slot — so at most one candidate per
// node per cycle can fail to get a port, and it parks in the node's side
// buffer (a MinBD-style local queue shared with the injection backlog).
// Side-buffered flits re-enter arbitration as the node's local
// candidate, chosen oldest-first across the side buffer and the
// injection queue, so an old parked flit displaces younger injections
// and cannot starve.
//
// A node is active while it holds a staged flit: on an arrival ring, in
// its injection backlog or in its side buffer. A tick steps an active
// node only when a flit there can move (the skeleton's step rule): a link
// push marks the downstream node for the cycle the flit lands, an
// injection marks its node, and a step that leaves a local flit (an
// injection backlog, a same-cycle injection gated to its first
// arbitration next cycle included, or a side-buffered flit) marks its own
// node for the next tick. A flit on a link therefore costs no step until
// it lands. Packets may complete out of order on a channel (a detour
// delays an older one); the skeleton's in-order delivery holds them (see
// cycle.go).
//
// Waste accounting: every link traversal is charged to the per-link
// utilization telemetry as it happens, and when a flit ejects, the hops
// it actually took beyond its minimal route are added to
// Mesh.deflHops — so after a drain, total link traversals equal the
// minimal flit-hops the fabric charges at injection plus
// NetStats.DeflectedHops (FuzzDeflectionPermutation pins the identity).

// deflFlit is one independently-routed flit. Flits outlive their order:
// deflections reorder them, so each carries its index (the final
// priority tiebreak) and its own hop counter for waste accounting.
type deflFlit struct {
	pkt  *packet
	idx  int
	hops int // links traversed so far (>= pkt.minHops at ejection)
	next *deflFlit
}

// before reports whether flit a outranks flit b under the oldest-first
// total order: injection cycle, then packet sequence, then flit index.
// The order is strict (no two staged flits compare equal), which is what
// makes arbitration — and therefore the whole model — deterministic.
func (a *deflFlit) before(b *deflFlit) bool {
	if a.pkt.injectAt != b.pkt.injectAt {
		return a.pkt.injectAt < b.pkt.injectAt
	}
	if a.pkt.seq != b.pkt.seq {
		return a.pkt.seq < b.pkt.seq
	}
	return a.idx < b.idx
}

// deflSlot is one in-flight flit on a link: it becomes a candidate at
// the downstream router at cycle at.
type deflSlot struct {
	at int64
	f  *deflFlit
}

// deflRing is a fixed-capacity FIFO of the flits in flight on one
// directed link. At most one flit enters a link per cycle and every
// arrival is consumed the tick it lands, so occupancy never exceeds
// LinkLatency+1 and arrival stamps are strictly increasing.
type deflRing struct {
	s    []deflSlot
	head int
	n    int
}

func (r *deflRing) front() *deflSlot { return &r.s[r.head] }

func (r *deflRing) pop() {
	r.s[r.head].f = nil
	r.head++
	if r.head == len(r.s) {
		r.head = 0
	}
	r.n--
}

func (r *deflRing) push(at int64, f *deflFlit) {
	i := r.head + r.n
	if i >= len(r.s) {
		i -= len(r.s)
	}
	r.s[i] = deflSlot{at, f}
	r.n++
}

// deflNode is one router of the deflection network.
type deflNode struct {
	rings []deflRing // arrival ring per input port

	// The local queue: injQ is the injection backlog (appended in
	// priority order, so its head is its oldest flit) and sideQ holds
	// side-buffered flits (at most one parks per cycle; scanned for the
	// oldest). The node's single local candidate each cycle is the older
	// of the two heads.
	injQ    []*deflFlit
	injHead int
	sideQ   []*deflFlit
}

// localLen returns the local-queue occupancy (injection backlog plus
// side buffer), the quantity tracked as peak buffering telemetry.
func (nd *deflNode) localLen() int { return len(nd.injQ) - nd.injHead + len(nd.sideQ) }

// deflCand is one cycle's arbitration candidate at a node. src encodes
// where the flit came from: srcInj/srcSide for the local candidate
// (still in its queue; removed only if it wins an output), or >= 0 for
// an arrival already popped from that input port's ring.
type deflCand struct {
	f   *deflFlit
	src int
}

const (
	srcInj  = -1
	srcSide = -2
)

type deflRouter struct {
	cycleNet
	nodes []deflNode
	flits int    // flit records currently on the network
	seq   uint64 // next packet sequence number

	// Per-tick scratch, reused across nodes so arbitration allocates
	// nothing: the candidate list (at most in-degree + 1 entries) and
	// the output-port claim flags.
	cands     []deflCand
	portTaken []bool
	sideIdx   int // index in sideQ of the current local candidate

	flitFree *deflFlit
}

func newDeflRouter(m *Mesh) *deflRouter {
	ports := m.topo.Ports()
	r := &deflRouter{}
	r.init(m, r)
	r.nodes = make([]deflNode, m.topo.Tiles())
	r.cands = make([]deflCand, 0, ports+1)
	r.portTaken = make([]bool, ports)
	ringCap := int(m.cfg.LinkLatency) + 1
	for n := range r.nodes {
		nd := &r.nodes[n]
		nd.rings = make([]deflRing, len(r.up[n]))
		for i := range nd.rings {
			nd.rings[i].s = make([]deflSlot, ringCap)
		}
	}
	return r
}

func (r *deflRouter) newFlit(pkt *packet, idx int) *deflFlit {
	f := r.flitFree
	if f == nil {
		f = &deflFlit{}
	} else {
		r.flitFree = f.next
		f.next = nil
	}
	f.pkt, f.idx, f.hops = pkt, idx, 0
	return f
}

func (r *deflRouter) inject(src, dst, flits int, payload any) int {
	pkt := r.admit(src, dst, flits, payload)
	hops := r.m.topo.Hops(src, dst)
	pkt.minHops, pkt.arrived = hops, 0
	pkt.seq = r.seq
	r.seq++
	nd := &r.nodes[src]
	for i := 0; i < flits; i++ {
		nd.injQ = append(nd.injQ, r.newFlit(pkt, i))
	}
	r.addActive(src, flits)
	r.markHot(src)
	r.flits += flits
	if occ := nd.localLen(); occ > r.m.peakVC {
		r.m.peakVC = occ
	}
	return hops
}

// stepNode runs one node's cycle: gather this cycle's candidates, rank
// them oldest-first, and place every one — ejection, productive port,
// deflection, or (for at most one) the side buffer. A node left with a
// local flit (an injection backlog, gated or not, or a side-buffered
// flit) is stepped again at the next tick.
func (r *deflRouter) stepNode(n int, now int64) {
	nd := &r.nodes[n]
	cands := r.cands[:0]

	// Due link arrivals: at most one per input port per cycle (stamps in
	// a ring are strictly increasing and every due front is consumed the
	// tick it lands, so the front is the only candidate).
	for p := range nd.rings {
		ring := &nd.rings[p]
		if ring.n > 0 && ring.front().at <= now {
			cands = append(cands, deflCand{ring.front().f, p})
			ring.pop()
		}
	}
	removed := len(cands) // flits leaving this node (adjusted below)

	// The local candidate: the older of the injection-backlog head (the
	// backlog is appended in priority order, so the head is the oldest)
	// and the oldest side-buffered flit. Peeked, not popped — it leaves
	// its queue only if it wins an output this cycle. A flit injected
	// this very cycle is gated to next tick: whether the injecting event
	// ran before or after this cycle's tick, its first hop leaves at
	// injectAt+1, keeping latency a pure function of the schedule rather
	// than of same-cycle event ordering.
	var local *deflFlit
	localSrc := srcInj
	if nd.injHead < len(nd.injQ) {
		if f := nd.injQ[nd.injHead]; f.pkt.injectAt < now {
			local = f
		}
	}
	for i, f := range nd.sideQ {
		if local == nil || f.before(local) {
			local, localSrc = f, srcSide
			r.sideIdx = i
		}
	}
	if local != nil {
		// The local candidate leaves the node only if it wins an output;
		// takeLocal's call sites bump removed when it does.
		cands = append(cands, deflCand{local, localSrc})
	}

	// Oldest-first ranking (insertion sort: at most in-degree+1 entries,
	// and the order is strict so the result is unique).
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i
		for j > 0 && c.f.before(cands[j-1].f) {
			cands[j] = cands[j-1]
			j--
		}
		cands[j] = c
	}

	for p := range r.portTaken {
		r.portTaken[p] = false
	}
	down := r.down[n]
	ejected := false
	for _, c := range cands {
		f := c.f
		want := -1 // -1: this flit wants ejection (or lost it this cycle)
		if f.pkt.dst == n {
			if !ejected {
				ejected = true
				if c.src < 0 {
					r.takeLocal(nd, c.src)
					removed++
				}
				r.ejectFlit(n, f, now)
				continue
			}
		} else {
			want, _ = r.m.topo.NextPort(n, f.pkt.dst)
		}
		out := -1
		if want >= 0 && !r.portTaken[want] {
			out = want
		} else {
			// Deflect: the lowest-numbered free output. The detour is
			// not charged here — deflected waste is the flit's actual
			// hops beyond its minimal route, settled at ejection.
			for p := range down {
				if down[p].node >= 0 && !r.portTaken[p] {
					out = p
					break
				}
			}
		}
		if out >= 0 {
			r.portTaken[out] = true
			if c.src < 0 {
				r.takeLocal(nd, c.src)
				removed++
			}
			f.hops++
			l := down[out]
			r.nodes[l.node].rings[l.port].push(now+r.m.cfg.LinkLatency, f)
			r.markArrival(l.node)
			r.addActive(l.node, 1)
			r.m.linkBusy[n][out]++
			continue
		}
		// Every output (and the ejection slot, if wanted) is taken: park
		// in the side buffer. Only an arrival can land here — the local
		// candidate is still in its queue and simply stays — and the
		// in-degree <= out-degree symmetry means at most one arrival per
		// cycle does. The next tick re-arbitrates it.
		if c.src >= 0 {
			nd.sideQ = append(nd.sideQ, f)
			if occ := nd.localLen(); occ > r.m.peakVC {
				r.m.peakVC = occ
			}
			removed-- // it stayed at this node after all
		}
	}
	if removed > 0 {
		r.subActive(n, removed)
	}
	if nd.localLen() > 0 {
		r.markHot(n) // a gated injection arbitrates next cycle, too
	}
}

// takeLocal removes the winning local candidate from its queue; arrivals
// (src >= 0) were already popped from their ring at gather and never
// reach here.
func (r *deflRouter) takeLocal(nd *deflNode, src int) {
	if src == srcInj {
		nd.injQ[nd.injHead] = nil
		nd.injHead++
		if nd.injHead == len(nd.injQ) {
			nd.injQ = nd.injQ[:0] // drained: recycle the backing array
			nd.injHead = 0
		}
		return
	}
	last := len(nd.sideQ) - 1
	nd.sideQ[r.sideIdx] = nd.sideQ[last]
	nd.sideQ[last] = nil
	nd.sideQ = nd.sideQ[:last]
}

// ejectFlit takes a flit off the network at its destination, settles its
// deflected-hop waste, and hands the packet to in-order delivery when it
// was the last.
func (r *deflRouter) ejectFlit(n int, f *deflFlit, now int64) {
	pkt := f.pkt
	r.m.deflHops += uint64(f.hops - pkt.minHops)
	f.pkt = nil
	f.next = r.flitFree
	r.flitFree = f
	r.flits--
	pkt.arrived++
	if pkt.arrived == pkt.flits {
		r.deliver(n, pkt, now)
	}
}
