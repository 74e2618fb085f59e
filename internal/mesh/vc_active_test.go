package mesh

import (
	"math/bits"
	"testing"

	"repro/internal/sim"
)

// TestVCTickWorkIsOActive pins the O(active) claim with a work counter:
// a single flow crossing a 16x16 mesh keeps at most a handful of routers
// staged at any cycle (the stage it streams from plus the stage allocated
// downstream), so per-tick node visits must be bounded by the flow's
// footprint — not by the 256 tiles the old full scan walked every cycle.
func TestVCTickWorkIsOActive(t *testing.T) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 16, Height: 16, Router: "vc", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	r := m.r.(*vcRouter)

	// One 5-flit packet corner to corner: 30 hops on the 16x16 mesh.
	hops := m.Send(0, m.Tiles()-1, 5, nil)

	maxPerStep, ticks := uint64(0), 0
	prev := r.tickVisits
	for k.Step() {
		if d := r.tickVisits - prev; d > 0 {
			ticks++
			if d > maxPerStep {
				maxPerStep = d
			}
		}
		prev = r.tickVisits
	}

	if ticks == 0 {
		t.Fatal("no ticks fired; the traversal did not run")
	}
	// A wormhole packet pipelines: while the head streams ahead the tail
	// is still crossing earlier routers, so the packet spans O(flits)
	// stages at once — for 5 flits, at most ~6 nodes (span plus the
	// downstream stage the head just allocated). Nowhere near the 256 the
	// full scan visited.
	if maxPerStep > 7 {
		t.Errorf("a single 5-flit flow visited %d nodes in one tick, want <= 7 (O(active), not O(tiles))", maxPerStep)
	}
	// Total work across the whole traversal is O(hops + flits), nowhere
	// near hops x 256. The constant covers flit serialization and the
	// skip-ahead granularity; what matters is the scale.
	total := r.tickVisits
	bound := uint64(8 * (hops + 5))
	if total > bound {
		t.Errorf("traversal visited %d nodes total over %d hops, want <= %d", total, hops, bound)
	}
}

// checkActiveMask verifies the membership invariant the O(active) tick
// relies on: activeMask bit n is set exactly while node n's count is
// positive, the count matches the node's live stages, and the candidate
// masks and their per-output summary are the per-output view of the same
// stages — at every VC count, however many words the masks take.
func checkActiveMask(t *testing.T, r *vcRouter) {
	t.Helper()
	checkMaskCount(t, &r.cycleNet)
	for n := range r.nodes {
		nd := &r.nodes[n]
		staged := 0
		if nd.inj.pkt != nil {
			staged++
		}
		for p := range nd.in {
			for v := range nd.in[p] {
				if nd.in[p][v].pkt != nil {
					staged++
				}
			}
		}
		if staged != r.count[n] {
			t.Fatalf("node %d: count = %d but %d stages hold packets", n, r.count[n], staged)
		}
		cand := 0
		for out := 0; out <= r.eject; out++ {
			words := nd.cand[out*r.words : (out+1)*r.words]
			nonzero := false
			for _, w := range words {
				cand += bits.OnesCount64(w)
				nonzero = nonzero || w != 0
			}
			if summary := nd.outs>>uint(out)&1 == 1; summary != nonzero {
				t.Fatalf("node %d: output %d summary bit %v but candidate words %#x", n, out, summary, words)
			}
		}
		if cand != r.count[n] {
			t.Fatalf("node %d: count = %d but %d candidate bits set", n, r.count[n], cand)
		}
	}
}

// TestVCActiveMaskInvariant steps busy bursts on a 16x16 mesh and torus
// and checks the mask invariant after every kernel step — including the
// dateline (wraparound) allocation path the torus exercises, and 32 VCs,
// whose candidate masks take three words. Run under -race in CI.
func TestVCActiveMaskInvariant(t *testing.T) {
	for _, c := range []struct {
		name, topo string
		vcs        int
	}{
		{"mesh", "mesh", 0},
		{"torus", "torus", 0},
		{"torus-vcs32", "torus", 32},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := &sim.Kernel{}
			m := New(k, Config{Width: 16, Height: 16, Topology: c.topo, Router: "vc", VCs: c.vcs,
				LinkLatency: 3})
			for tile := 0; tile < m.Tiles(); tile++ {
				m.Register(tile, func(any) {})
			}
			r := m.r.(*vcRouter)
			hot := 16*8 + 8
			for round := 0; round < 3; round++ {
				// Crossing streams, a hotspot, and wraparound-adjacent
				// sources so torus datelines are crossed.
				for _, src := range []int{0, 15, 240, 255, 7, 248} {
					m.Send(src, hot, 5, nil)
					m.Send(hot, src, 3, nil)
				}
				m.Send(0, 255, 5, nil)
				m.Send(255, 0, 5, nil)
				for k.Step() {
					checkActiveMask(t, r)
				}
				checkActiveMask(t, r)
			}
			// Drained network: no node may stay on the mask.
			for w, word := range r.activeMask {
				if word != 0 {
					t.Fatalf("drained network still has active bits in word %d: %#x", w, word)
				}
			}
		})
	}
}
