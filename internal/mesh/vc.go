package mesh

// The cycle-level virtual-channel wormhole router (Config.Router = "vc"),
// on the cycle-level skeleton in cycle.go.
//
// Every router has, per incoming link, VCs flit buffers of VCDepth entries
// each, managed with credit-based flow control: a flit may leave upstream
// only while the downstream buffer has a free slot, and the credit returns
// one link latency after the slot frees. Each cycle every router with a
// flit that can move performs, in fixed port order:
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
// A node is active while it holds a staged packet stage: an input VC or
// the head of its source queue. A stage is staged at the downstream node
// when its VC is allocated, before any of its flits arrive, so an
// uncontended packet keeps at most two nodes active (the stage it streams
// from and the stage allocated downstream). A tick steps an active node
// only when a flit there can move (the skeleton's step rule): forward
// marks the downstream node for the cycle its flit lands, a staged source
// packet marks its node, and a step marks its own node again when it
// leaves a flit ready — a due front that lost this cycle, or a winner
// whose next flit is already there. An uncontended traversal therefore
// costs one step per flit per router.
//
// Candidates: a node's stages form one table indexed by stage id
// (inPort*VCs + vc; the source queue is numIn*VCs, the last entry), and
// each stage keeps its port, its VC and the arrival cycle of its next
// flit (front), so testing a candidate reads one struct and divides
// nothing. Each output port keeps a bitmask over stage ids of the stages
// staged toward it, as many 64-bit words as the largest id needs, and
// each node keeps a summary of the outputs with any candidate, so switch
// allocation visits only live candidates in round-robin order.
//
// Buffers: per-VC arrival queues are fixed-capacity rings (credits bound
// occupancy by VCDepth) whose front each stage caches, credits are one
// flat table per node (output port*VCs + downstream vc), credit returns
// ride a router-global time-ordered ring (every credit takes exactly
// LinkLatency cycles, so pushes are monotone) instead of a kernel event
// per flit, and the injection queues recycle their backing arrays.
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

	// MaxVCs bounds Config.VCs: router state grows with VCs x VCDepth
	// per input port, and at both bounds a 16x16 torus already holds
	// about 41 MB of it.
	MaxVCs = 64
	// MaxVCDepth bounds Config.VCDepth (see MaxVCs).
	MaxVCDepth = 64

	// MaxSide bounds each side of the tile grid. Memory grows faster
	// than the tile count: every DBypFull L1 keeps a copy of every L2
	// bank's Bloom filter. At the bound, the heaviest Tiny cell (radix
	// under DBypFull on a 16x16 torus through the vc router at MaxVCs x
	// MaxVCDepth) peaks at 321 MB resident in 2.0 s, and at Small at
	// 533 MB in 22 s; a 20x20 Tiny cell already takes 680 MB.
	MaxSide = 16
)

// stage is one router stage a packet streams through: an input VC, or the
// head of the source (injection) queue. A node's stages form one table
// indexed by stage id, inPort*VCs + vc, with the source stage last
// (numIn*VCs), so the candidate loop reaches a stage, its port and its
// VC without dividing.
type stage struct {
	pkt *packet
	// front is the arrival cycle of the stage's next flit: MaxInt64 while
	// it has none, MinInt64 while a source packet is staged (its flits
	// are all at the source). A flit can move only once front <= now.
	front   int64
	port    int // input port (numIn for the source stage)
	vc      int // input VC (-1 for the source stage)
	downVC  int // VC allocated at the downstream input port; -1 = none yet
	outPort int // output port at this node; topo.Ports() means ejection
	id      int // stage id, the candidate bit index at this node
	class   int // dateline VC class held at this node (0 or 1)
	axis    int // axis (port/2) of the hop that reached this node; -1 at source
	sent    int // flits this stage has forwarded

	// The input VC's buffered flits: a fixed-capacity ring of their
	// arrival cycles (a slot is reserved from the moment the upstream
	// sends, which is what the credit counter tracks, so occupancy never
	// exceeds VCDepth). arr[arrHead] is front while arrLen > 0.
	arr     []int64
	arrHead int
	arrLen  int
}

func (b *stage) arrPop() {
	b.arrHead++
	if b.arrHead == len(b.arr) {
		b.arrHead = 0
	}
	b.arrLen--
	if b.arrLen == 0 {
		b.front = math.MaxInt64
	} else {
		b.front = b.arr[b.arrHead]
	}
}

func (b *stage) arrPush(t int64) {
	i := b.arrHead + b.arrLen
	if i >= len(b.arr) {
		i -= len(b.arr)
	}
	b.arr[i] = t
	if b.arrLen == 0 {
		b.front = t
	}
	b.arrLen++
}

// creditRet is one in-flight credit return: the upstream node regains a
// buffer slot on credit index idx (output port*VCs + downstream VC) at
// cycle at.
type creditRet struct {
	at   int64
	node int32
	idx  int32
}

type vcNode struct {
	injQ    []*packet // pending source packets; injQ[injHead:] is live
	injHead int
	in      []stage // stage table by id; in[len(in)-1] is the source stage
	credits []int   // [output port*VCs + downstream vc]: free buffer slots
	outRR   []int   // switch-allocation round-robin pointer per output port
	vcRR    []int   // VC-allocation round-robin pointer per output port
	usedIn  uint    // bit i: input port i already supplied a flit this cycle
	wrap    []bool  // per output port: wraparound (dateline-crossing) link
	// cand[out*words+id>>6] has bit id&63 set for every stage staged
	// toward output out (s.pkt != nil && s.outPort == out), and outs has
	// bit out set while any of out's words is nonzero.
	cand []uint64
	outs uint
}

type vcRouter struct {
	cycleNet
	vcs   int
	depth int
	eject int // pseudo output port index = topo.Ports()
	words int // candidate-mask words per output port
	nodes []vcNode

	// Pending credit returns, a time-ordered ring (constant LinkLatency
	// makes pushes monotone), applied by the first node step at or after
	// their cycle. Only a node step reads credits, so a tick that steps no
	// node may leave due ones in the ring.
	credQ    []creditRet
	credHead int
	credLen  int
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
	// geometry is a programmer error, same as an unknown topology in New.
	if vcs < 2 || vcs%2 != 0 || vcs > MaxVCs {
		panic(fmt.Sprintf("mesh: VCs = %d; the dateline split needs an even count in [2, %d]", m.cfg.VCs, MaxVCs))
	}
	depth := m.cfg.VCDepth
	if depth <= 0 {
		depth = defaultVCDepth
	}
	if depth > MaxVCDepth {
		panic(fmt.Sprintf("mesh: VCDepth = %d exceeds %d", depth, MaxVCDepth))
	}
	ports := m.topo.Ports()
	r := &vcRouter{vcs: vcs, depth: depth, eject: ports}
	r.init(m, r)
	r.words = (ports*vcs + 1 + 63) / 64 // ids 0..numIn*vcs, numIn <= ports
	r.nodes = make([]vcNode, m.topo.Tiles())
	for n := range r.nodes {
		nd := &r.nodes[n]
		numIn := len(r.up[n])
		nd.in = make([]stage, numIn*vcs+1)
		for id := range nd.in {
			s := &nd.in[id]
			s.id, s.port, s.vc = id, id/vcs, id%vcs
			s.downVC = -1
			s.front = math.MaxInt64
			if id < numIn*vcs {
				s.arr = make([]int64, depth)
			} else {
				s.vc = -1
			}
		}
		nd.credits = make([]int, ports*vcs)
		nd.wrap = make([]bool, ports)
		for p := 0; p < ports; p++ {
			if r.down[n][p].node < 0 {
				continue
			}
			nd.wrap[p] = m.topo.Wraparound(n, p)
			for v := 0; v < vcs; v++ {
				nd.credits[p*vcs+v] = depth
			}
		}
		nd.outRR = make([]int, ports+1)
		nd.vcRR = make([]int, ports)
		nd.cand = make([]uint64, (ports+1)*r.words)
	}
	return r
}

func (r *vcRouter) inject(src, dst, flits int, payload any) int {
	nd := &r.nodes[src]
	nd.injQ = append(nd.injQ, r.admit(src, dst, flits, payload))
	if len(nd.injQ)-nd.injHead == 1 {
		r.startInjection(src, nd)
	}
	return r.m.topo.Hops(src, dst)
}

// setCand and clearCand maintain a node's candidate masks and their
// per-output summary.
func (r *vcRouter) setCand(nd *vcNode, out, id int) {
	nd.cand[out*r.words+id>>6] |= 1 << uint(id&63)
	nd.outs |= 1 << uint(out)
}

func (r *vcRouter) clearCand(nd *vcNode, out, id int) {
	words := nd.cand[out*r.words : (out+1)*r.words]
	words[id>>6] &^= 1 << uint(id&63)
	for _, w := range words {
		if w != 0 {
			return
		}
	}
	nd.outs &^= 1 << uint(out)
}

// startInjection stages the head of a source queue for switch allocation.
// Its flits can move at once, so the node is stepped at the next tick.
func (r *vcRouter) startInjection(n int, nd *vcNode) {
	s := &nd.in[len(nd.in)-1]
	s.pkt = nd.injQ[nd.injHead]
	s.front = math.MinInt64
	s.sent = 0
	s.class = 0
	s.axis = -1
	s.downVC = -1
	s.outPort, _ = r.m.topo.NextPort(n, s.pkt.dst)
	r.setCand(nd, s.outPort, s.id)
	r.addActive(n, 1)
	r.markHot(n)
}

// pushCredit queues a credit return for cycle at (always now+LinkLatency,
// so the ring stays time-ordered without sorting).
func (r *vcRouter) pushCredit(at int64, node, idx int) {
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
	r.credQ[i] = creditRet{at: at, node: int32(node), idx: int32(idx)}
	r.credLen++
}

// drainCredits applies every credit due by now.
func (r *vcRouter) drainCredits(now int64) {
	for r.credLen > 0 {
		c := &r.credQ[r.credHead]
		if c.at > now {
			return
		}
		r.nodes[c.node].credits[c.idx]++
		r.credHead++
		if r.credHead == len(r.credQ) {
			r.credHead = 0
		}
		r.credLen--
	}
}

// stepNode runs VC and switch allocation at node n for every output port
// with a candidate. The credits due by now are applied first: the first
// node step at or after their cycle applies them all (credits returned
// during the tick are due at least a cycle later), so every node sees the
// same credit state a tick-start drain would give it. A step that leaves
// a flit ready to move — a due front that did not move, or a winner whose
// next flit is already there — marks the node to be stepped again at the
// next tick.
func (r *vcRouter) stepNode(n int, now int64) {
	r.drainCredits(now)
	nd := &r.nodes[n]
	nd.usedIn = 0
	ready := false
	// outs is read once. An output can gain a candidate mid-step only
	// from the next source packet, staged when the last one's tail left,
	// and the source port has already supplied this cycle's flit.
	for outs := nd.outs; outs != 0; outs &= outs - 1 {
		ready = r.serviceOutput(n, nd, bits.TrailingZeros(outs), now, ready)
	}
	if ready {
		r.markHot(n)
	}
}

// serviceOutput runs VC + switch allocation for one output port: visit the
// staged candidates in round-robin order from the id after the last
// winner and forward the first that can move. It reports whether a stage
// is left ready to move: ready comes in from the node's earlier outputs,
// and becomes true when a due candidate cannot move, or when the winner's
// next flit is already there. Until it is, the scan goes on past the
// winner, only to test the rest for a due front. The order walks the mask
// words from the one holding start+1, wrapping around, and visits that
// word twice: its ids above start first, its ids up to start last.
func (r *vcRouter) serviceOutput(n int, nd *vcNode, out int, now int64, ready bool) bool {
	cand := nd.cand[out*r.words : (out+1)*r.words]
	start := nd.outRR[out]
	first := (start + 1) >> 6
	if first == len(cand) {
		first = 0
	}
	above := ^uint64(0) << uint((start+1)&63) // ids above start in word first
	moved := false
	for i := 0; i <= len(cand); i++ {
		w := first + i
		if w >= len(cand) {
			w -= len(cand)
		}
		word := cand[w]
		switch i {
		case 0:
			word &= above
		case len(cand):
			word &^= above
		}
		for ; word != 0; word &= word - 1 {
			s := &nd.in[w<<6+bits.TrailingZeros64(word)]
			if s.front > now {
				continue // its next flit has not arrived
			}
			if moved {
				return true // a due flit behind this cycle's winner
			}
			if nd.usedIn>>uint(s.port)&1 != 0 {
				ready = true
				continue
			}
			if out != r.eject {
				if s.downVC < 0 && !r.allocVC(n, nd, s, out) {
					ready = true
					continue // no free downstream VC for this header
				}
				if nd.credits[out*r.vcs+s.downVC] == 0 {
					ready = true
					continue // downstream buffer full
				}
			}
			nd.outRR[out] = s.id
			r.forward(n, nd, out, s, now)
			moved = true
			if ready || s.front <= now {
				return true
			}
		}
	}
	return ready
}

// allocVC claims a free downstream input VC in the packet's dateline class
// and stages the packet's streaming state at the downstream node.
func (r *vcRouter) allocVC(n int, nd *vcNode, s *stage, out int) bool {
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
	l := r.down[n][out]
	down := &r.nodes[l.node]
	width := hi - lo
	start := nd.vcRR[out]
	for k := 0; k < width; k++ {
		// start+k and start+k+1 are both below 2*width.
		i := start + k
		if i >= width {
			i -= width
		}
		tgt := &down.in[l.port*r.vcs+lo+i]
		if tgt.pkt != nil {
			continue
		}
		if i++; i == width {
			i = 0
		}
		nd.vcRR[out] = i
		s.downVC = tgt.vc
		tgt.pkt = s.pkt
		tgt.sent = 0
		tgt.class = class
		tgt.axis = r.m.topo.PortAxis(out)
		tgt.downVC = -1
		tgt.arrHead, tgt.arrLen = 0, 0
		if l.node == s.pkt.dst {
			tgt.outPort = r.eject
		} else {
			tgt.outPort, _ = r.m.topo.NextPort(l.node, s.pkt.dst)
		}
		r.setCand(down, tgt.outPort, tgt.id)
		r.addActive(l.node, 1)
		return true
	}
	return false
}

// forward moves one flit out of a stage: onto the link toward the
// downstream buffer, or off the network at the ejection port.
func (r *vcRouter) forward(n int, nd *vcNode, out int, s *stage, now int64) {
	nd.usedIn |= 1 << uint(s.port)
	s.sent++
	tail := s.sent == s.pkt.flits
	if s.vc >= 0 {
		// The flit frees a buffer slot; the credit reaches the upstream
		// router one link traversal later.
		s.arrPop()
		up := r.up[n][s.port]
		r.pushCredit(now+r.m.cfg.LinkLatency, up.node, up.port*r.vcs+s.vc)
	}
	if out == r.eject {
		if tail {
			r.deliver(n, s.pkt, now)
			r.release(n, nd, s)
		}
		return
	}
	l := r.down[n][out]
	tgt := &r.nodes[l.node].in[l.port*r.vcs+s.downVC]
	tgt.arrPush(now + r.m.cfg.LinkLatency)
	r.markArrival(l.node)
	if tgt.arrLen > r.m.peakVC {
		r.m.peakVC = tgt.arrLen
	}
	nd.credits[out*r.vcs+s.downVC]--
	r.m.linkBusy[n][out]++
	if tail {
		r.release(n, nd, s)
	}
}

// release retires a packet's stage at this node once its tail has left,
// freeing the VC (or advancing the source queue) for the next packet.
func (r *vcRouter) release(n int, nd *vcNode, s *stage) {
	r.clearCand(nd, s.outPort, s.id)
	r.subActive(n, 1)
	s.pkt = nil
	s.downVC = -1
	if s.vc >= 0 {
		return // the ring is empty: the tail was the VC's last flit
	}
	s.front = math.MaxInt64
	nd.injQ[nd.injHead] = nil // drop the reference for the free list
	nd.injHead++
	if nd.injHead < len(nd.injQ) {
		r.startInjection(n, nd)
	} else {
		nd.injQ = nd.injQ[:0] // drained: recycle the backing array
		nd.injHead = 0
	}
}
