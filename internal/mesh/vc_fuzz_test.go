package mesh

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// checkVCCredits is the vc router's credit-conservation audit: for every
// link and VC, the upstream credits, the flits buffered (or in flight)
// downstream and the credit returns still pending add up to VCDepth.
// pend is scratch, sized ports*VCs per node.
func checkVCCredits(t *testing.T, r *vcRouter, pend []int) {
	t.Helper()
	ports := r.m.topo.Ports()
	for i := range pend {
		pend[i] = 0
	}
	for i := 0; i < r.credLen; i++ {
		c := r.credQ[(r.credHead+i)%len(r.credQ)]
		pend[int(c.node)*ports*r.vcs+int(c.idx)]++
	}
	for n := range r.nodes {
		for p := 0; p < ports; p++ {
			l := r.down[n][p]
			if l.node < 0 {
				continue
			}
			for v := 0; v < r.vcs; v++ {
				credits := r.nodes[n].credits[p*r.vcs+v]
				buffered := r.nodes[l.node].in[l.port*r.vcs+v].arrLen
				pending := pend[(n*ports+p)*r.vcs+v]
				if credits+buffered+pending != r.depth {
					t.Fatalf("link %d port %d vc %d: %d credits + %d buffered + %d pending != VCDepth %d",
						n, p, v, credits, buffered, pending, r.depth)
				}
			}
		}
	}
}

// FuzzVCConservation fuzzes the vc router the way FuzzDeflectionPermutation
// fuzzes the deflection router, over arbitrary topologies, grids up to
// 6x6, even VC counts from 2 to 64 (multi-word candidate masks from 16 up
// on four ports), VCDepth from 1 to 8 and the shared timed random
// schedule. After every kernel step the active mask must match the
// per-node stage counts, the live stages must equal the candidate bits,
// every stage's cached front must match its ring, a tick must have
// skipped no node with a flit that could move (the step rule), and
// credits must be conserved on every link and VC. After the drain
// every packet must have been delivered, in channel order and never
// before its minimal-route bound, and every credit must be back at
// VCDepth. The checked-in corpus under testdata/fuzz seeds multi-word
// masks and 1-wide grids.
func FuzzVCConservation(f *testing.F) {
	f.Add(uint64(1), 0, 4, 4, 0, 3, 32)   // paper mesh, 2 VCs of 4
	f.Add(uint64(7), 1, 4, 4, 1, 0, 48)   // ring, 4 VCs of 1: credit stalls
	f.Add(uint64(9), 2, 4, 4, 3, 1, 48)   // torus, 8 VCs: dateline classes of 4
	f.Add(uint64(3), 2, 4, 4, 31, 7, 64)  // torus, 64 VCs: five mask words
	f.Add(uint64(11), 0, 1, 6, 7, 1, 24)  // 1-wide mesh, 16 VCs: two mask words
	f.Add(uint64(5), 1, 16, 1, 15, 2, 40) // long ring, 32 VCs
	f.Fuzz(func(t *testing.T, seed uint64, kindIdx, w, h, vcsIdx, depthIdx, npkts int) {
		kinds := TopologyKinds()
		kind := kinds[((kindIdx%len(kinds))+len(kinds))%len(kinds)]
		width := ((w%6)+6)%6 + 1
		height := ((h%6)+6)%6 + 1
		vcs := 2 * (((vcsIdx%32)+32)%32 + 1)
		depth := ((depthIdx%8)+8)%8 + 1
		npkts = ((npkts%64)+64)%64 + 1

		k := &sim.Kernel{}
		m := New(k, Config{Width: width, Height: height, Topology: kind, Router: "vc",
			VCs: vcs, VCDepth: depth, LinkLatency: 3})
		r := m.r.(*vcRouter)
		pend := make([]int, len(r.nodes)*m.topo.Ports()*vcs)
		delivered := randomSchedule(t, k, m, seed, npkts, 0)
		log := newStepLog(&r.cycleNet, vcMovable(r))

		steps := 0
		for k.Step() {
			log.check(t)
			checkActiveMask(t, r)
			checkVCCredits(t, r, pend)
			steps++
			if steps > 2_000_000 {
				t.Fatalf("%s %dx%d VCs=%d depth=%d: schedule of %d packets did not drain",
					kind, width, height, vcs, depth, npkts)
			}
		}
		if *delivered != npkts {
			t.Fatalf("%s %dx%d VCs=%d depth=%d: delivered %d of %d packets",
				kind, width, height, vcs, depth, *delivered, npkts)
		}
		checkDrained(t, &r.cycleNet)
		// Returns still pending when the last tick ran are due by now.
		r.drainCredits(math.MaxInt64)
		checkVCCredits(t, r, pend)
		for n := range r.nodes {
			for i, c := range r.nodes[n].credits {
				if p := i / vcs; r.down[n][p].node >= 0 && c != depth {
					t.Fatalf("drained network: node %d port %d vc %d holds %d credits, want %d", n, p, i%vcs, c, depth)
				}
			}
		}
	})
}
