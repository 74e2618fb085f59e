package mesh

// The cycle-level virtual-channel wormhole router (Config.Router = "vc").
//
// Every router has, per incoming link, VCs flit buffers of VCDepth entries
// each, managed with credit-based flow control: a flit may leave upstream
// only while the downstream buffer has a free slot, and the credit returns
// one link latency after the slot frees. Each cycle every router performs,
// in fixed tile/port order:
//
//   - VC allocation: a header flit at the front of an input VC (or the
//     source queue) claims a free downstream VC in its dateline class,
//     round-robin per output port;
//   - switch allocation: each output port (plus the ejection port) accepts
//     at most one flit per cycle, chosen round-robin over the (input port,
//     VC) candidates, and each input port supplies at most one flit per
//     cycle;
//   - link traversal: the winning flit reaches the downstream buffer
//     LinkLatency cycles later.
//
// Determinism: the whole network advances inside the kernel's recurring-
// tick slot, one tick per cycle while packets are in flight, and every
// allocation scan uses fixed iteration order plus per-port round-robin
// pointers. Two runs that inject the same packets at the same cycles
// therefore produce identical deliveries.
//
// Idle skip-ahead: a tick that forwards nothing proves the network frozen
// — every staged flit is blocked on a future buffered-flit arrival, a
// pending credit return, or (transitively) another blocked flit — so the
// next tick is armed with Kernel.TickSkipTo at the earliest arrival or
// credit time instead of next cycle. The kernel clamps the jump to its
// next pending event (which may inject new packets, resetting the wake
// horizon via inject), and TickSkipTo's sequence accounting keeps
// equal-timestamp event ordering bit-identical to per-cycle ticking, so
// the optimization is invisible except to the wall clock.
//
// Allocation-free steady state: packets come from a free list, per-VC
// arrival queues are fixed-capacity rings (credits bound occupancy by
// VCDepth), credit returns ride a router-global time-ordered ring drained
// at tick start (every credit takes exactly LinkLatency cycles, so pushes
// are monotone) instead of a kernel closure per flit, and the injection
// queues recycle their backing arrays. A steady-state tick performs zero
// heap allocations; vc_alloc_test.go pins that with testing.AllocsPerRun.
//
// O(active) ticks: a tick visits only the nodes that hold staged packets,
// found through activeMask — a bitmask with bit n set exactly while
// nodes[n].active > 0 (set in startInjection and allocVC when a node
// gains its first stage, cleared in release when its last stage retires).
// Iteration goes word by word via bits.TrailingZeros64, i.e. in the same
// ascending node order as the old full scan, which is what keeps the
// cross-node allocation coupling deterministic (a release at node i frees
// a downstream VC that a later node j > i can claim in the same cycle,
// exactly as before). A bit set mid-tick by allocVC is behavior-neutral
// either way: the newly staged stage has no buffered flits yet (its
// arrival ring is empty until forward pushes with a future timestamp), so
// visiting it or not forwards nothing and moves no round-robin pointer.
// Link advancement is batched by construction: an in-flight flit lives in
// a downstream arrival ring with a future arrival stamp and costs nothing
// per cycle, so an uncontended packet keeps at most two nodes active (the
// stage it streams from and the stage allocated downstream) and its full
// traversal costs O(hops) node visits total — not O(hops·tiles) as under
// the full scan. The skip-ahead horizon composes: an idle fabric still
// jumps the kernel, and a sparse fabric now ticks in O(active).
//
// Deadlock freedom: routing is minimal and dimension-ordered, and the VCs
// are split into two dateline classes — packets start in class 0 and move
// to class 1 for the rest of the dimension after crossing a wraparound
// (dateline) link, so the ring and torus channel-dependency cycles are
// broken exactly as in the classic dateline scheme. Meshes never wrap and
// simply use class 0.

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	defaultVCs     = 2
	defaultVCDepth = 4
)

// vcPkt is one packet traveling the VC network. Packets are recycled
// through the router's free list once their tail flit ejects.
type vcPkt struct {
	dst, flits int
	payload    any
	injectAt   int64
	next       *vcPkt // free list link
}

// hopState tracks a packet streaming through one router stage: an input VC
// or the head of a source (injection) queue.
type hopState struct {
	pkt     *vcPkt
	id      int // candidate bit index at this node (inPort*vcs+vc; numIn*vcs = source)
	outPort int // output port at this node; topo.Ports() means ejection
	class   int // dateline VC class held at this node (0 or 1)
	axis    int // axis (port/2) of the hop that reached this node; -1 at source
	downVC  int // VC allocated at the downstream input port; -1 = none yet
	sent    int // flits this stage has forwarded
}

// inVC is one input virtual channel: streaming state plus a fixed-capacity
// ring of the buffered flits' arrival cycles (a slot is reserved from the
// moment the upstream sends, which is what the credit counter tracks, so
// occupancy never exceeds VCDepth).
type inVC struct {
	hopState
	arr     []int64 // arrival-cycle ring, cap == VCDepth, FIFO
	arrHead int
	arrLen  int
}

func (b *inVC) arrFront() int64 { return b.arr[b.arrHead] }

func (b *inVC) arrPop() {
	b.arrHead++
	if b.arrHead == len(b.arr) {
		b.arrHead = 0
	}
	b.arrLen--
}

func (b *inVC) arrPush(t int64) {
	i := b.arrHead + b.arrLen
	if i >= len(b.arr) {
		i -= len(b.arr)
	}
	b.arr[i] = t
	b.arrLen++
}

// creditRet is one in-flight credit return: the upstream output (node,
// port, vc) regains a buffer slot at cycle at.
type creditRet struct {
	at   int64
	node int32
	port int16
	vc   int16
}

type linkEnd struct{ node, port int }

type vcNode struct {
	injQ    []*vcPkt // pending source packets; injQ[injHead:] is live
	injHead int
	inj     hopState
	in      [][]inVC  // [input port][vc]
	ups     []linkEnd // upstream (node, output port) feeding each input port
	downTo  []int     // downstream node per output port; -1 = no link
	downIn  []int     // downstream input-port index per output port
	wrap    []bool    // per output port: wraparound (dateline-crossing) link
	credits [][]int   // [output port][downstream vc]: free buffer slots
	outRR   []int     // switch-allocation round-robin pointer per output port
	vcRR    []int     // VC-allocation round-robin pointer per output port
	usedIn  []bool    // input port already supplied a flit this cycle
	active  int       // packets currently staged at this node
	// cand[out] has bit s.id set for every stage staged toward output out
	// (s.pkt != nil && s.outPort == out), so switch allocation scans only
	// live candidates instead of every (input, vc) slot. Unused when the
	// router falls back to wide mode (candidate ids beyond 63).
	cand []uint64
}

type vcRouter struct {
	m        *Mesh
	vcs      int
	depth    int
	eject    int  // pseudo output port index = topo.Ports()
	wide     bool // candidate ids exceed 64 bits; use the linear scan
	nodes    []vcNode
	inFlight int

	// activeMask has bit n set exactly while nodes[n].active > 0; tick and
	// nextArrival iterate it instead of scanning every node. The invariant
	// is maintained by startInjection/allocVC (set) and release (clear)
	// and pinned by TestVCActiveMaskInvariant.
	activeMask []uint64

	// tickVisits counts nodes visited by tick since construction — the
	// work counter behind the O(active) test (per-tick visits on a sparse
	// mesh are bounded by the traffic's footprint, not the tile count).
	tickVisits uint64

	// wake is the cycle before which no staged flit can make progress
	// (set by a no-progress tick; 0 = the next tick must do a full scan).
	// inject resets it: a new header invalidates the frozen-state proof.
	wake int64

	// Pending credit returns, a time-ordered ring (constant LinkLatency
	// makes pushes monotone). Drained at the start of every tick, exactly
	// matching the old per-credit kernel events, which always fired before
	// the same cycle's tick.
	credQ    []creditRet
	credHead int
	credLen  int

	pktFree *vcPkt // recycled packets
}

func newVCRouter(m *Mesh) *vcRouter {
	vcs := m.cfg.VCs
	if vcs == 0 {
		vcs = defaultVCs
	}
	// The dateline scheme splits the VCs into two equal classes; an odd
	// count would silently short class 0 (e.g. VCs=3 -> classes of 1 and
	// 2), skewing fairness and the torus deadlock margin. User-facing
	// paths validate via memsys.Config.Validate; reaching here with a bad
	// count is a programmer error, same as an unknown topology in New.
	if vcs < 2 || vcs%2 != 0 {
		panic(fmt.Sprintf("mesh: VCs = %d; the dateline split needs an even count >= 2", m.cfg.VCs))
	}
	depth := m.cfg.VCDepth
	if depth <= 0 {
		depth = defaultVCDepth
	}
	ports := m.topo.Ports()
	r := &vcRouter{m: m, vcs: vcs, depth: depth, eject: ports}
	r.nodes = make([]vcNode, m.topo.Tiles())
	r.activeMask = make([]uint64, (len(r.nodes)+63)/64)
	for i := range r.nodes {
		nd := &r.nodes[i]
		nd.downTo = make([]int, ports)
		for p := range nd.downTo {
			nd.downTo[p] = -1
		}
		nd.downIn = make([]int, ports)
		nd.wrap = make([]bool, ports)
		nd.credits = make([][]int, ports)
		nd.outRR = make([]int, ports+1)
		nd.vcRR = make([]int, ports)
		nd.inj.downVC = -1
	}
	for _, l := range m.topo.Links() {
		to := &r.nodes[l.To]
		idx := len(to.in)
		row := make([]inVC, vcs)
		for v := range row {
			row[v].id = idx*vcs + v
			row[v].downVC = -1
			row[v].arr = make([]int64, depth)
		}
		to.in = append(to.in, row)
		to.ups = append(to.ups, linkEnd{l.From, l.Port})
		from := &r.nodes[l.From]
		from.downTo[l.Port] = l.To
		from.downIn[l.Port] = idx
		from.wrap[l.Port] = m.topo.Wraparound(l.From, l.Port)
		cr := make([]int, vcs)
		for v := range cr {
			cr[v] = depth
		}
		from.credits[l.Port] = cr
	}
	for i := range r.nodes {
		nd := &r.nodes[i]
		nd.usedIn = make([]bool, len(nd.in)+1)
		nd.inj.id = len(nd.in) * vcs
		nd.cand = make([]uint64, ports+1)
		if nd.inj.id >= 64 {
			r.wide = true
		}
	}
	m.k.SetTicker(r.tick)
	return r
}

func (r *vcRouter) kind() string { return "vc" }

func (r *vcRouter) inject(src, dst, flits int, payload any) int {
	pkt := r.pktFree
	if pkt == nil {
		pkt = &vcPkt{}
	} else {
		r.pktFree = pkt.next
		pkt.next = nil
	}
	pkt.dst, pkt.flits, pkt.payload, pkt.injectAt = dst, flits, payload, r.m.k.Now()
	nd := &r.nodes[src]
	nd.injQ = append(nd.injQ, pkt)
	if len(nd.injQ)-nd.injHead == 1 {
		r.startInjection(src, nd)
	}
	r.inFlight++
	r.wake = 0 // a fresh header invalidates any frozen-state proof
	if !r.m.k.TickArmed() {
		r.m.k.TickNext()
	}
	return r.m.topo.Hops(src, dst)
}

// markActive and clearActive maintain the active-node bitmask; they are
// the only writers, called exactly on a node's 0->1 and 1->0 stage-count
// transitions.
func (r *vcRouter) markActive(n int)  { r.activeMask[n>>6] |= 1 << uint(n&63) }
func (r *vcRouter) clearActive(n int) { r.activeMask[n>>6] &^= 1 << uint(n&63) }

// startInjection stages the head of a source queue for switch allocation.
func (r *vcRouter) startInjection(n int, nd *vcNode) {
	s := &nd.inj
	s.pkt = nd.injQ[nd.injHead]
	s.sent = 0
	s.class = 0
	s.axis = -1
	s.downVC = -1
	s.outPort, _ = r.m.topo.NextPort(n, s.pkt.dst)
	nd.cand[s.outPort] |= 1 << uint(s.id)
	nd.active++
	if nd.active == 1 {
		r.markActive(n)
	}
}

// pushCredit queues a credit return for cycle at (always now+LinkLatency,
// so the ring stays time-ordered without sorting).
func (r *vcRouter) pushCredit(at int64, node, port, vc int) {
	if r.credLen == len(r.credQ) {
		grown := make([]creditRet, max(64, 2*len(r.credQ)))
		for i := 0; i < r.credLen; i++ {
			grown[i] = r.credQ[(r.credHead+i)%len(r.credQ)]
		}
		r.credQ = grown
		r.credHead = 0
	}
	i := r.credHead + r.credLen
	if i >= len(r.credQ) {
		i -= len(r.credQ)
	}
	r.credQ[i] = creditRet{at: at, node: int32(node), port: int16(port), vc: int16(vc)}
	r.credLen++
}

// drainCredits applies every credit due by now.
func (r *vcRouter) drainCredits(now int64) {
	for r.credLen > 0 {
		c := &r.credQ[r.credHead]
		if c.at > now {
			return
		}
		r.nodes[c.node].credits[c.port][c.vc]++
		r.credHead++
		if r.credHead == len(r.credQ) {
			r.credHead = 0
		}
		r.credLen--
	}
}

// tick advances the whole network by one cycle, or proves the current
// cycle (and possibly a run of following ones) idle and skips ahead.
func (r *vcRouter) tick() {
	now := r.m.k.Now()
	r.drainCredits(now)
	if now < r.wake {
		// Still inside a proven-frozen window (the kernel pulled the tick
		// earlier for a heap event that turned out not to inject).
		r.m.k.TickSkipTo(r.wake)
		return
	}
	progressed := false
	// Visit only active nodes, in ascending node order (the same order as
	// the old full scan — required, since a release at node i can free a
	// downstream VC that a later node j claims this same cycle). Each mask
	// word is snapshotted when reached: bits set into it mid-tick by
	// allocVC belong to stages with empty arrival rings that cannot
	// forward this cycle, so skipping them is bit-identical (see the
	// package comment).
	for w, word := range r.activeMask {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			nd := &r.nodes[i]
			r.tickVisits++
			for j := range nd.usedIn {
				nd.usedIn[j] = false
			}
			if r.wide {
				for out := 0; out <= r.eject; out++ {
					if r.serviceOutputScan(i, nd, out, now) {
						progressed = true
					}
				}
				continue
			}
			for out := 0; out <= r.eject; out++ {
				if nd.cand[out] == 0 {
					continue
				}
				if r.serviceOutput(i, nd, out, now) {
					progressed = true
				}
			}
		}
	}
	if r.inFlight == 0 {
		return // network drained; the next inject re-arms the tick
	}
	if progressed {
		r.wake = 0
		r.m.k.TickNext()
		return
	}
	// Nothing moved: every staged flit waits on a future arrival, a
	// pending credit, or a flit that is itself frozen. The state cannot
	// change before the earliest arrival/credit lands, so skip there.
	wake := r.nextArrival(now)
	if r.credLen > 0 && r.credQ[r.credHead].at < wake {
		wake = r.credQ[r.credHead].at
	}
	if wake == math.MaxInt64 {
		// No future arrival or credit either: a true deadlock. Keep
		// ticking so the behavior matches the per-cycle model exactly;
		// the driver's livelock watchdog reports it.
		r.wake = 0
		r.m.k.TickNext()
		return
	}
	r.wake = wake
	r.m.k.TickSkipTo(wake)
}

// nextArrival returns the earliest strictly-future buffered-flit arrival
// cycle, or MaxInt64 if none is in flight. Arrivals already due (a flit
// buffered but blocked on credits or a downstream VC) don't bound the
// wake horizon — whatever unblocks them is a credit return or another
// flit's arrival, which the caller accounts separately.
func (r *vcRouter) nextArrival(now int64) int64 {
	min := int64(math.MaxInt64)
	for w, word := range r.activeMask {
		for ; word != 0; word &= word - 1 {
			nd := &r.nodes[w<<6+bits.TrailingZeros64(word)]
			for p := range nd.in {
				row := nd.in[p]
				for v := range row {
					b := &row[v]
					if b.pkt != nil && b.arrLen > 0 {
						if t := b.arrFront(); t > now && t < min {
							min = t
						}
					}
				}
			}
		}
	}
	return min
}

// serviceOutput runs VC + switch allocation for one output port: visit the
// staged (input port, VC) candidates in round-robin order via the port's
// candidate bitmask and forward the first winner. It reports whether a flit
// moved. The mask holds exactly the stages with s.pkt != nil and
// s.outPort == out, so skipping unset bits examines the same eligible
// candidates, in the same order, as the exhaustive scan.
func (r *vcRouter) serviceOutput(n int, nd *vcNode, out int, now int64) bool {
	mask := nd.cand[out]
	numIn := len(nd.in)
	start := nd.outRR[out]
	// Round-robin order from start+1: ids above start ascending, then ids
	// from 0 through start. A shift count of 64 (start == 63) yields 0 in
	// Go, correctly leaving no "above" half.
	above := mask &^ (1<<uint(start+1) - 1)
	for _, half := range [2]uint64{above, mask &^ above} {
		for m := half; m != 0; m &= m - 1 {
			id := bits.TrailingZeros64(m)
			var s *hopState
			var buf *inVC
			inPort, vcIdx := numIn, -1 // defaults: the source queue
			if id < numIn*r.vcs {
				inPort, vcIdx = id/r.vcs, id%r.vcs
				buf = &nd.in[inPort][vcIdx]
				s = &buf.hopState
				if buf.arrLen == 0 || buf.arrFront() > now {
					continue
				}
			} else {
				s = &nd.inj
			}
			if nd.usedIn[inPort] {
				continue
			}
			if out != r.eject {
				if s.downVC < 0 && !r.allocVC(nd, s, out) {
					continue // no free downstream VC for this header
				}
				if nd.credits[out][s.downVC] == 0 {
					continue // downstream buffer full
				}
			}
			r.forward(n, nd, out, inPort, vcIdx, s, buf, now)
			nd.outRR[out] = id
			return true
		}
	}
	return false
}

// serviceOutputScan is the exhaustive-order fallback used in wide mode
// (candidate ids beyond 63, i.e. VCs >= 16 on a 4-port topology): scan
// every (input port, VC) slot round-robin and forward the first winner.
func (r *vcRouter) serviceOutputScan(n int, nd *vcNode, out int, now int64) bool {
	numIn := len(nd.in)
	total := numIn*r.vcs + 1 // +1: the source queue head
	start := nd.outRR[out]
	for k := 1; k <= total; k++ {
		id := (start + k) % total
		var s *hopState
		var buf *inVC
		inPort, vcIdx := numIn, -1 // defaults: the source queue
		if id < numIn*r.vcs {
			inPort, vcIdx = id/r.vcs, id%r.vcs
			buf = &nd.in[inPort][vcIdx]
			s = &buf.hopState
			if buf.arrLen == 0 || buf.arrFront() > now {
				continue
			}
		} else {
			s = &nd.inj
		}
		if s.pkt == nil || s.outPort != out || nd.usedIn[inPort] {
			continue
		}
		if out != r.eject {
			if s.downVC < 0 && !r.allocVC(nd, s, out) {
				continue // no free downstream VC for this header
			}
			if nd.credits[out][s.downVC] == 0 {
				continue // downstream buffer full
			}
		}
		r.forward(n, nd, out, inPort, vcIdx, s, buf, now)
		nd.outRR[out] = id
		return true
	}
	return false
}

// allocVC claims a free downstream input VC in the packet's dateline class
// and stages the packet's streaming state at the downstream node.
func (r *vcRouter) allocVC(nd *vcNode, s *hopState, out int) bool {
	class := s.class
	if r.m.topo.PortAxis(out) != s.axis {
		class = 0 // a new dimension starts a new dateline ring
	}
	if nd.wrap[out] {
		class = 1 // crossing the dateline moves to the upper VC class
	}
	half := r.vcs / 2
	lo, hi := 0, half
	if class == 1 {
		lo, hi = half, r.vcs
	}
	d := nd.downTo[out]
	down := &r.nodes[d]
	width := hi - lo
	start := nd.vcRR[out]
	for k := 0; k < width; k++ {
		w := lo + (start+k)%width
		tgt := &down.in[nd.downIn[out]][w]
		if tgt.pkt != nil {
			continue
		}
		nd.vcRR[out] = (start + k + 1) % width
		s.downVC = w
		tgt.pkt = s.pkt
		tgt.sent = 0
		tgt.class = class
		tgt.axis = r.m.topo.PortAxis(out)
		tgt.downVC = -1
		tgt.arrHead, tgt.arrLen = 0, 0
		if d == s.pkt.dst {
			tgt.outPort = r.eject
		} else {
			tgt.outPort, _ = r.m.topo.NextPort(d, s.pkt.dst)
		}
		down.cand[tgt.outPort] |= 1 << uint(tgt.id)
		down.active++
		if down.active == 1 {
			r.markActive(d)
		}
		return true
	}
	return false
}

// forward moves one flit out of a stage: onto the link toward the
// downstream buffer, or off the network at the ejection port.
func (r *vcRouter) forward(n int, nd *vcNode, out, inPort, vcIdx int, s *hopState, buf *inVC, now int64) {
	nd.usedIn[inPort] = true
	s.sent++
	tail := s.sent == s.pkt.flits
	if buf != nil {
		// The flit frees a buffer slot; the credit reaches the upstream
		// router one link traversal later.
		buf.arrPop()
		up := nd.ups[inPort]
		r.pushCredit(now+r.m.cfg.LinkLatency, up.node, up.port, vcIdx)
	}
	if out == r.eject {
		if tail {
			pkt := s.pkt
			r.m.complete(n, pkt.payload, pkt.injectAt, now)
			r.inFlight--
			r.release(n, nd, s)
			pkt.payload = nil
			pkt.next = r.pktFree
			r.pktFree = pkt
		}
		return
	}
	tgt := &r.nodes[nd.downTo[out]].in[nd.downIn[out]][s.downVC]
	tgt.arrPush(now + r.m.cfg.LinkLatency)
	if tgt.arrLen > r.m.peakVC {
		r.m.peakVC = tgt.arrLen
	}
	nd.credits[out][s.downVC]--
	r.m.linkBusy[n][out]++
	if tail {
		r.release(n, nd, s)
	}
}

// release retires a packet's stage at this node once its tail has left,
// freeing the VC (or advancing the source queue) for the next packet.
func (r *vcRouter) release(n int, nd *vcNode, s *hopState) {
	nd.cand[s.outPort] &^= 1 << uint(s.id)
	nd.active--
	if nd.active == 0 {
		r.clearActive(n)
	}
	if s == &nd.inj {
		nd.injQ[nd.injHead] = nil // drop the reference for the free list
		nd.injHead++
		s.pkt = nil
		if nd.injHead < len(nd.injQ) {
			r.startInjection(n, nd)
		} else {
			nd.injQ = nd.injQ[:0] // drained: recycle the backing array
			nd.injHead = 0
		}
		return
	}
	s.pkt = nil
	s.downVC = -1
}
