package mesh

import (
	"testing"

	"repro/internal/sim"
)

// TestDeflectionTickWorkIsOActive pins the O(active) claim for the
// deflection router with the same work counter the vc test uses: a
// single flow crossing a 16x16 mesh keeps only the nodes its flits are
// staged at on the active mask, so per-tick node visits are bounded by
// the flow's footprint — not the 256 tiles a full scan would walk. The
// deflection bounds are looser than vc's: without per-hop buffering
// every in-flight flit keeps its own node staged, so a 5-flit packet
// can span up to ~flits+2 nodes (one per flit in flight plus the
// injection and arrival ends).
func TestDeflectionTickWorkIsOActive(t *testing.T) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 16, Height: 16, Router: "deflection", LinkLatency: 3})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	r := m.r.(*deflRouter)

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
	if maxPerStep > 8 {
		t.Errorf("a single 5-flit flow visited %d nodes in one tick, want <= 8 (O(active), not O(tiles))", maxPerStep)
	}
	// Total work across the traversal is O(flits * hops) at worst — each
	// flit's node is visited once per link stage — nowhere near hops x 256.
	total := r.tickVisits
	bound := uint64(8 * 5 * (hops + 5))
	if total > bound {
		t.Errorf("traversal visited %d nodes total over %d hops, want <= %d", total, hops, bound)
	}
}

// TestDeflectionActiveMaskInvariant steps contended bursts on a 16x16
// mesh and torus and runs the full conservation audit after every kernel
// step: mask membership, staged counts, ring-stamp monotonicity and the
// global flit ledger. Run under -race in CI.
func TestDeflectionActiveMaskInvariant(t *testing.T) {
	for _, topo := range []string{"mesh", "torus"} {
		t.Run(topo, func(t *testing.T) {
			k := &sim.Kernel{}
			m := New(k, Config{Width: 16, Height: 16, Topology: topo, Router: "deflection",
				LinkLatency: 3})
			for tile := 0; tile < m.Tiles(); tile++ {
				m.Register(tile, func(any) {})
			}
			r := m.r.(*deflRouter)
			hot := 16*8 + 8
			for round := 0; round < 3; round++ {
				// Crossing streams, a hotspot, and wraparound-adjacent
				// sources so torus wrap ports carry traffic.
				for _, src := range []int{0, 15, 240, 255, 7, 248} {
					m.Send(src, hot, 5, nil)
					m.Send(hot, src, 3, nil)
				}
				m.Send(0, 255, 5, nil)
				m.Send(255, 0, 5, nil)
				for k.Step() {
					checkDeflConservation(t, r)
				}
				checkDeflConservation(t, r)
			}
			checkDeflDrained(t, r)
		})
	}
}
